import math

import numpy as np
import pytest
import scipy.special as sps

from prosinfo import (
    Design,
    EntropyError,
    EntropyReport,
    NumericsError,
    SetPlan,
    kl_likelihood_chain,
    kl_pros_srs,
    make_balanced_design,
    make_model,
    renyi,
    shannon,
)

LN_2PIE = math.log(2.0 * math.pi * math.e)
EULER_GAMMA = 0.5772156649015329
GAMMA_SHAPE = 2.0  # the gamma family's default shape


def _renyi_closed_form(fam, a, s):
    """Parent Renyi entropy of order a at scale s (Song, 2001)."""
    if fam == "normal":
        return 0.5 * math.log(2.0 * math.pi * s * s) - math.log(a) / (2.0 * (1.0 - a))
    if fam == "exponential":
        return math.log(a) / (a - 1.0) + math.log(s)
    if fam == "logistic":
        return sps.betaln(a, a) / (1.0 - a) + math.log(s)
    if fam == "extreme_value":
        return (sps.gammaln(a) - a * math.log(a)) / (1.0 - a) + math.log(s)
    if fam == "gamma":
        # int f^a = s^(1-a) Gamma(a(k-1)+1) / (Gamma(k)^a a^(a(k-1)+1))
        k = GAMMA_SHAPE
        log_mass = ((1.0 - a) * math.log(s) + sps.gammaln(a * (k - 1.0) + 1.0)
                    - a * sps.gammaln(k) - (a * (k - 1.0) + 1.0) * math.log(a))
        return log_mass / (1.0 - a)
    return math.log(s)  # uniform


def _shannon_closed_form(fam, s):
    k = GAMMA_SHAPE
    return math.log(s) + {
        "normal": 0.5 * LN_2PIE,
        "exponential": 1.0,
        "logistic": 2.0,
        "extreme_value": EULER_GAMMA + 1.0,
        "gamma": k + sps.gammaln(k) + (1.0 - k) * sps.digamma(k),
        "uniform": 0.0,
    }[fam]


def _scaled(fam, s):
    return make_model(fam, **({"scale": s} if fam == "uniform" else {"sigma": s}))


ORACLE_FAMILIES = ("normal", "exponential", "logistic", "extreme_value", "gamma", "uniform")


def test_shannon_srs_uniform_is_zero():
    for n in (1, 3):
        report = shannon(make_model("uniform"), kind="srs", n=n)
        np.testing.assert_allclose(report.total, 0.0, atol=1e-9)
        assert report.per_subset == (0.0,) * n or np.allclose(report.per_subset, 0.0, atol=1e-9)


def test_shannon_srs_normal_pair():
    report = shannon(make_model("normal"), kind="srs", n=2)
    np.testing.assert_allclose(report.total, LN_2PIE, atol=1e-6)
    np.testing.assert_allclose(report.total, 2.8378770664, atol=1e-6)
    # iid observations: the bounds collapse onto the value itself
    np.testing.assert_allclose(report.lower_bound, report.total, atol=1e-9)
    np.testing.assert_allclose(report.upper_bound, report.total, atol=1e-9)


def test_shannon_scale_shift_invariance():
    base = shannon(make_model("normal"), kind="pros", n=2, set_size=6)
    shifted = shannon(make_model("normal", mu=5.0), kind="pros", n=2, set_size=6)
    np.testing.assert_allclose(shifted.total, base.total, atol=1e-8)
    doubled = shannon(make_model("normal", sigma=2.0), kind="pros", n=2, set_size=6)
    np.testing.assert_allclose(doubled.total, base.total + 2.0 * math.log(2.0), atol=1e-8)


def test_shannon_pros_uniform_pair():
    report = shannon(make_model("uniform"), kind="pros", n=2, set_size=2)
    np.testing.assert_allclose(report.total, 1.0 - 2.0 * math.log(2.0), atol=1e-8)
    np.testing.assert_allclose(report.per_subset, [0.5 - math.log(2.0)] * 2, atol=1e-8)
    assert report.kind == "pros"


def test_shannon_ranking_reduces_entropy():
    model = make_model("normal")
    srs = shannon(model, kind="srs", n=2)
    pros = shannon(model, kind="pros", n=2, set_size=6)
    rss = shannon(model, kind="rss", n=2, set_size=2)
    assert pros.total < srs.total
    assert rss.total < srs.total
    assert pros.total < rss.total  # a wider set pins each measurement down more


@pytest.mark.parametrize("fam", ("normal", "exponential", "uniform"))
@pytest.mark.parametrize("n,S", ((2, 6), (3, 6), (2, 12)))
def test_shannon_bounds_sandwich_total(fam, n, S):
    report = shannon(make_model(fam), kind="pros", n=n, set_size=S)
    assert report.lower_bound <= report.total + 1e-6
    assert report.total <= report.upper_bound + 1e-6


def test_shannon_argument_validation():
    model = make_model("normal")
    with pytest.raises(EntropyError):
        shannon(model, kind="pros", n=2)  # set_size required
    with pytest.raises(EntropyError):
        shannon(model, kind="rss", n=2, set_size=6)  # rss measures every rank
    with pytest.raises(EntropyError):
        shannon(model, kind="quantile", n=2, set_size=6)
    with pytest.raises(EntropyError):
        shannon(model, kind="pros", n=0, set_size=6)
    from prosinfo import DesignError

    with pytest.raises(DesignError):
        shannon(model, kind="pros", n=4, set_size=6)  # blocks must divide the set


def test_renyi_uniform_values():
    report = renyi(make_model("uniform"), 0.5, kind="srs", n=2)
    np.testing.assert_allclose(report.total, 0.0, atol=1e-9)
    pros = renyi(make_model("uniform"), 0.5, kind="pros", n=2, set_size=2)
    np.testing.assert_allclose(pros.total, 4.0 * math.log(2.0 * math.sqrt(2.0) / 3.0), atol=1e-8)
    np.testing.assert_allclose(pros.total, -0.2355660713, atol=1e-8)


def test_renyi_order_limits_to_shannon():
    model = make_model("normal")
    near_one = renyi(model, 0.999, kind="pros", n=2, set_size=4)
    exact = shannon(model, kind="pros", n=2, set_size=4)
    np.testing.assert_allclose(near_one.total, exact.total, atol=1e-3)


def test_renyi_order_validation():
    model = make_model("normal")
    for alpha in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(EntropyError, match="alpha"):
            renyi(model, alpha, kind="srs", n=1)


def test_renyi_decreases_in_order_for_pros():
    # Renyi entropy is non-increasing in its order
    model = make_model("exponential")
    values = [
        renyi(model, a, kind="pros", n=2, set_size=6).total for a in (0.25, 0.5, 0.75)
    ]
    assert values[0] >= values[1] >= values[2] - 1e-12


def test_kl_pros_srs_values():
    np.testing.assert_allclose(
        kl_pros_srs(make_model("uniform"), make_balanced_design(2, 2)),
        2.0 * math.log(2.0) - 1.0,
        atol=1e-8,
    )
    # distribution-free: any parent gives the same divergence
    np.testing.assert_allclose(
        kl_pros_srs(make_model("logistic"), make_balanced_design(2, 2)),
        kl_pros_srs(make_model("exponential"), make_balanced_design(2, 2)),
        atol=1e-8,
    )


@pytest.mark.parametrize("S,n", ((2, 2), (6, 2), (6, 3), (12, 4)))
def test_kl_pros_srs_nonnegative_and_bounded(S, n):
    model = make_model("normal")
    design = make_balanced_design(S, n)
    got = kl_pros_srs(model, design)
    assert got >= -1e-12
    rss_all = kl_pros_srs(model, make_balanced_design(S, S))
    assert got <= rss_all / (S // n) + 1e-9


def test_kl_pros_srs_requires_balanced():
    blocks = ((1, 2), (3, 4, 5, 6))
    unequal = Design(6, (SetPlan(1, blocks, 1), SetPlan(1, blocks, 2)))
    with pytest.raises(EntropyError, match="^KL information is defined here for balanced designs$"):
        kl_pros_srs(make_model("normal"), unequal)
    with pytest.raises(EntropyError, match="^the likelihood chain is defined for balanced designs$"):
        kl_likelihood_chain(make_model("normal"), unequal)


def test_kl_chain_ordering():
    for fam in ("normal", "exponential", "logistic"):
        model = make_model(fam)
        lo, mid, hi = kl_likelihood_chain(model, make_balanced_design(6, 2))
        assert lo <= mid + 1e-9, fam
        assert mid <= hi + 1e-9, fam


def test_kl_chain_exponential_exact():
    # log f - log g is (x + delta)/sigma - x/sigma = shift for exponential noise
    lo, mid, hi = kl_likelihood_chain(make_model("exponential"), make_balanced_design(6, 2), shift=0.5)
    np.testing.assert_allclose(lo, 2.0 * 0.5, atol=1e-9)
    lo3, _, _ = kl_likelihood_chain(make_model("exponential"), make_balanced_design(6, 3), shift=0.25)
    np.testing.assert_allclose(lo3, 3.0 * 0.25, atol=1e-9)
    # each RSS rank adds the shift less the entropy of its Beta(v, S+1-v) quantile density
    from scipy.stats import beta

    rss = sum(0.5 - beta(v, 7 - v).entropy() for v in range(1, 7))
    np.testing.assert_allclose(hi, rss / 3.0, rtol=1e-9)


@pytest.mark.parametrize("S, n", [(6, 2), (12, 3), (12, 4), (24, 3), (64, 4)])
def test_values_read_from_the_parent_row_are_exact(S, n):
    # the parent row is w = 1 exactly, not a Bernstein series summing to 1 within rounding
    uniform = make_model("uniform")
    assert shannon(uniform, "pros", n, S).upper_bound == 0.0
    assert renyi(uniform, 0.5, "pros", n, S).upper_bound == 0.0
    # log f(x) - log f(x + 1/2) integrates to 1/8 per measurement for the standard normal
    k_srs = kl_likelihood_chain(make_model("normal"), make_balanced_design(S, n))[0]
    assert abs(k_srs - n / 8) <= math.ulp(n / 8)


@pytest.mark.parametrize("n", (1, 3))
def test_srs_reads_no_block_weight_table(n):
    # at S = 1 every weight row is the parent's, exactly 1, so no ("blocks", 1, ...) table is built or kept;
    # the pros request shows that the same calls keep the tables of a set size above 1
    from prosinfo import numerics

    numerics._memo.clear()
    model = make_model("normal")
    shannon(model, "srs", n), renyi(model, 0.5, "srs", n), kl_likelihood_chain(model, make_balanced_design(1, 1))
    shannon(model, "pros", n, 2 * n)
    sizes = {key[1] for key, _ in numerics._memo if isinstance(key, tuple) and key[0] == "blocks"}
    assert sizes == {2 * n}, sizes


def test_kl_chain_uniform_diverges():
    with pytest.raises(EntropyError):
        kl_likelihood_chain(make_model("uniform"), make_balanced_design(6, 2))


def test_report_labels():
    report = shannon(make_model("normal"), kind="pros", n=2, set_size=6)
    assert "pros" in report.design_label
    assert "normal" in report.model_label
    assert len(report.per_subset) == 2


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
@pytest.mark.parametrize("s", (1.0, 2.5))
@pytest.mark.parametrize("a", (0.03, 0.1, 0.25, 0.5, 0.9))
def test_renyi_parent_matches_closed_form(fam, s, a):
    got = renyi(_scaled(fam, s), a, kind="srs", n=1).total
    np.testing.assert_allclose(got, _renyi_closed_form(fam, a, s), rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
@pytest.mark.parametrize("s", (1.0, 2.5))
def test_shannon_parent_matches_closed_form(fam, s):
    got = shannon(_scaled(fam, s), kind="srs", n=1).total
    np.testing.assert_allclose(got, _shannon_closed_form(fam, s), rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("shape", (0.01, 0.1, 0.5))
@pytest.mark.parametrize("a", (0.3, 0.5, 0.9))
def test_renyi_gamma_below_shape_one_matches_closed_form(shape, a):
    # f diverges at 0, where the quantile underflows below t of about 1e-162 at shape 0.5 (1e-3 at 0.01):
    # f^(a-1) tends to 0 there; int f^a = Gamma(a(k-1)+1) / (Gamma(k)^a a^(a(k-1)+1))
    c = a * (shape - 1.0) + 1.0
    want = (sps.gammaln(c) - c * math.log(a) - a * sps.gammaln(shape)) / (1.0 - a)
    got = renyi(make_model("gamma", shape=shape), a, kind="srs", n=1).total
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_renyi_refuses_orders_it_cannot_certify(fam):
    if fam == "uniform":  # a bounded support stays exact
        got = renyi(_scaled(fam, 2.5), 0.01, kind="srs", n=1).total
        np.testing.assert_allclose(got, math.log(2.5), rtol=1e-12)
        return
    # at order 0.01 the tails of f^a carry mass that no level of the rule resolves
    for kind, set_size in (("srs", None), ("pros", 6)):
        with pytest.raises(NumericsError):
            renyi(make_model(fam), 0.01, kind=kind, n=2, set_size=set_size)


@pytest.mark.parametrize("fam", ORACLE_FAMILIES + ("exp_mixture",))
@pytest.mark.parametrize("a", (0.03, 0.1))
def test_renyi_small_orders_keep_the_sandwich(fam, a):
    report = renyi(make_model(fam), a, kind="pros", n=3, set_size=24)
    assert report.lower_bound <= report.total <= report.upper_bound



def _gamma_parent():
    k = GAMMA_SHAPE
    return (lambda x: math.exp((k - 1.0) * math.log(x) - x - math.lgamma(k)) if x > 0.0 else 0.0,
            lambda x: sps.gammainc(k, x), lambda x: sps.gammaincc(k, x), 0.0, sps.gammaincinv(k, 0.5))


_X_SCALE_PARENTS = {
    # family -> (f, F, 1 - F, lower end of the support, median) of its standard member, in scalar closed forms
    "normal": (lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)),
               lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)), -math.inf, 0.0),
    "logistic": (lambda x: math.exp(-abs(x)) / (1.0 + math.exp(-abs(x))) ** 2, lambda x: sps.expit(x),
                 lambda x: sps.expit(-x), -math.inf, 0.0),
    # e^x is capped where f, 1 - F and F - 1 have long underflowed to 0
    "extreme_value": (lambda x: math.exp(x - math.exp(min(x, 700.0))), lambda x: -math.expm1(-math.exp(min(x, 700.0))),
                      lambda x: math.exp(-math.exp(min(x, 700.0))), -math.inf, math.log(math.log(2.0))),
    "exponential": (lambda x: math.exp(-x), lambda x: -math.expm1(-x), lambda x: math.exp(-x), 0.0, math.log(2.0)),
    "gamma": _gamma_parent(),
    # the default (pi, h) = (1/2, 1/2): 1 - F = (e^(-x/2) + e^(-x)) / 2, 1/2 at e^(-x/2) = (sqrt 5 - 1) / 2
    "exp_mixture": (lambda x: 0.25 * math.exp(-0.5 * x) + 0.5 * math.exp(-x),
                    lambda x: -0.5 * (math.expm1(-0.5 * x) + math.expm1(-x)),
                    lambda x: 0.5 * (math.exp(-0.5 * x) + math.exp(-x)), 0.0, -2.0 * math.log((math.sqrt(5.0) - 1.0) / 2.0)),
}


def _x_scale_renyi(fam, a, n, set_size):
    """Per-subset Renyi entropies of PROS(n, S) by scipy quad on the x-scale: int f^a w_r(F)^a dx over the
    support, split at the median, with b_u(F) = C(S-1, u-1) F^(u-1) (1-F)^(S-u) from the survival function."""
    from scipy import integrate

    pdf, cdf, sf, lo, median = _X_SCALE_PARENTS[fam]
    out = []
    for block in make_balanced_design(set_size, n).subsets:
        coef = [(u - 1, set_size - u, set_size / len(block) * math.comb(set_size - 1, u - 1)) for u in block]

        def integrand(x, coef=coef):
            f, t, s = pdf(x), cdf(x), sf(x)
            return (f * sum(c * t**i * s**j for i, j, c in coef)) ** a if f > 0.0 else 0.0

        mass = sum(integrate.quad(integrand, x0, x1, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                   for x0, x1 in ((lo, median), (median, math.inf)))
        out.append(math.log(mass) / (1.0 - a))
    return out


@pytest.mark.parametrize("fam", tuple(_X_SCALE_PARENTS))
@pytest.mark.parametrize("set_size,n", ((6, 2), (12, 3), (24, 4)))
def test_renyi_pros_matches_an_x_scale_quad_oracle(fam, set_size, n):
    # the quantile-scale integral against scipy's adaptive quadrature of the x-scale form it replaced
    for a in (0.1, 0.3, 0.5, 0.8):
        got = renyi(make_model(fam), a, kind="pros", n=n, set_size=set_size).per_subset
        np.testing.assert_allclose(got, _x_scale_renyi(fam, a, n, set_size), rtol=1e-10, atol=1e-12, err_msg=str(a))


def test_entropy_report_refuses_an_unknown_kind():
    with pytest.raises(EntropyError, match=r"^kind must be one of \('srs', 'rss', 'pros'\), got 'x'$"):
        EntropyReport(kind="x", total=0.0, per_subset=(), lower_bound=0.0, upper_bound=0.0, model_label="",
                      design_label="")
