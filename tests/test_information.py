import numpy as np
import pytest

from prosinfo import (
    DesignError,
    InformationError,
    UnbalancedDesign,
    fi_pros_complete,
    fi_pros_marginal,
    fi_unbalanced,
    fisher_srs,
    h_matrix,
    identity_alpha,
    k_matrix,
    make_balanced_design,
    make_model,
    make_symmetric_alpha,
    regression_fi,
    relative_efficiencies,
    rss_design,
    uniform_alpha,
    verify_lemma_identity,
)

SEED = 4511


def test_fisher_srs_scales_with_count():
    model = make_model("normal")
    one = fisher_srs(model, 1).as_array()
    np.testing.assert_allclose(one, np.diag([1.0, 2.0]), atol=1e-9)
    np.testing.assert_allclose(fisher_srs(model, 7).as_array(), 7.0 * one, atol=1e-9)
    with pytest.raises(InformationError):
        fisher_srs(model, 0)


def test_k_matrix_trivial_set_is_zero():
    np.testing.assert_array_equal(k_matrix(make_model("normal"), 3, 1).as_array(), np.zeros((2, 2)))


def test_k_matrix_exponential_constant():
    got = k_matrix(make_model("exponential"), 2, 6).as_array()
    np.testing.assert_allclose(got, [[4.041]], atol=1e-2)


def test_k_matrix_normal_constants():
    got = k_matrix(make_model("normal"), 1, 2).as_array()
    np.testing.assert_allclose(np.diag(got), [0.4805, 0.2700], atol=2e-3)
    assert abs(got[0, 1]) < 1e-9


def test_k_matrix_is_positive_semidefinite():
    for fam in ("normal", "logistic", "extreme_value"):
        got = k_matrix(make_model(fam), 2, 6).as_array()
        assert np.linalg.eigvalsh(got).min() >= -1e-8


def test_h_matrix_identities():
    model = make_model("exponential")
    np.testing.assert_array_equal(h_matrix(model, 4, 4).as_array(), np.zeros((1, 1)))
    np.testing.assert_allclose(h_matrix(model, 2, 6).as_array(), [[3.233]], atol=1e-2)
    with pytest.raises(InformationError):
        h_matrix(model, 4, 3)
    # H is the (S-n)/(S-1) share of the full ranking gain
    k = k_matrix(make_model("normal"), 2, 6).as_array()
    h = h_matrix(make_model("normal"), 2, 6).as_array()
    np.testing.assert_allclose(h, k * (6 - 2) / (6 - 1), atol=1e-10)


def test_complete_info_exponential():
    model = make_model("exponential")
    fi = fi_pros_complete(model, 2, 6)
    np.testing.assert_allclose(fi.matrix.as_array(), [[6.041]], atol=1e-2)
    np.testing.assert_allclose(
        relative_efficiencies(fi, fisher_srs(model, 2)), 3.0205, atol=1e-3
    )


def test_complete_info_normal_joint_ratio():
    model = make_model("normal")
    got = relative_efficiencies(fi_pros_complete(model, 2, 6), fisher_srs(model, 2))
    np.testing.assert_allclose(got, 5.70, atol=0.05)


def test_complete_decomposes_into_srs_plus_k():
    for fam in ("normal", "exponential"):
        model = make_model(fam)
        whole = fi_pros_complete(model, 2, 6).matrix.as_array()
        parts = (fisher_srs(model, 2) + k_matrix(model, 2, 6)).as_array()
        np.testing.assert_allclose(whole, parts, atol=1e-10)


def test_complete_decomposes_into_rss_plus_h():
    for fam in ("normal", "logistic"):
        model = make_model(fam)
        whole = fi_pros_complete(model, 2, 6).matrix.as_array()
        rss = fi_pros_complete(model, 2, 2).matrix.as_array()
        np.testing.assert_allclose(
            whole, rss + h_matrix(model, 2, 6).as_array(), atol=1e-8
        )


def test_complete_cycles_multiply():
    model = make_model("exponential")
    one = fi_pros_complete(model, 2, 6).matrix.as_array()
    five = fi_pros_complete(model, 2, 6, cycles=5).matrix.as_array()
    np.testing.assert_allclose(five, 5.0 * one, rtol=1e-12)


def test_complete_trivial_design_is_srs():
    model = make_model("normal")
    np.testing.assert_allclose(
        fi_pros_complete(model, 1, 1).matrix.as_array(),
        fisher_srs(model, 1).as_array(),
        atol=1e-12,
    )


def test_complete_mc_agrees_with_quadrature():
    model = make_model("normal")
    quad = fi_pros_complete(model, 2, 6).matrix.as_array()
    mc = fi_pros_complete(model, 2, 6, method="mc", reps=20_000, seed=SEED)
    dev = np.abs(mc.matrix.as_array() - quad) / np.asarray(mc.std_errors)
    assert dev.max() <= 3.0


def test_relative_efficiencies_basics():
    model = make_model("exponential")
    fi = fi_pros_complete(model, 3, 6)
    assert relative_efficiencies(fi, fi) == 1.0
    np.testing.assert_allclose(
        relative_efficiencies(fi, fi_pros_complete(model, 3, 3)), 1.6704, atol=1e-3
    )
    with pytest.raises(InformationError):
        relative_efficiencies(fisher_srs(make_model("normal"), 1), fi)
    with pytest.raises(InformationError):
        relative_efficiencies(fi, np.zeros((1, 1)))


def test_rss_to_srs_ratio_normal():
    model = make_model("normal")
    got = relative_efficiencies(fi_pros_complete(model, 2, 2), fisher_srs(model, 2))
    np.testing.assert_allclose(got, 1.4805 * 1.1350, atol=1e-3)


def test_marginal_uniform_alpha_carries_no_ranking_information():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    fi = fi_pros_marginal(model, design, uniform_alpha(2))
    np.testing.assert_allclose(
        relative_efficiencies(fi, fisher_srs(model, 2)), 1.0, atol=1e-9
    )


def test_marginal_identity_alpha_matches_printed_cells():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    fi = fi_pros_marginal(model, design, identity_alpha(2))
    np.testing.assert_allclose(
        relative_efficiencies(fi, fisher_srs(model, 2)), 2.48, atol=0.05
    )
    rss = fi_pros_marginal(model, rss_design(2), identity_alpha(2))
    np.testing.assert_allclose(relative_efficiencies(fi, rss), 1.47, atol=0.05)


def test_marginal_symmetry_in_p():
    model = make_model("logistic")
    design = make_balanced_design(6, 2)
    for p in (0.0, 0.2, 0.35):
        a = fi_pros_marginal(model, design, make_symmetric_alpha(2, p)).matrix.as_array()
        b = fi_pros_marginal(model, design, make_symmetric_alpha(2, 1.0 - p)).matrix.as_array()
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_marginal_dominates_srs_and_stays_below_complete():
    model = make_model("normal")
    design = make_balanced_design(6, 3)
    srs = fisher_srs(model, 3).as_array()
    complete = fi_pros_complete(model, 3, 6).matrix.as_array()
    for p in (0.3, 0.7, 1.0):
        marginal = fi_pros_marginal(model, design, make_symmetric_alpha(3, p)).matrix.as_array()
        assert np.linalg.eigvalsh(marginal - srs).min() >= -1e-8
        assert np.linalg.eigvalsh(complete - marginal).min() >= -1e-8


def test_marginal_equals_complete_for_rss():
    # measuring every rank once leaves nothing latent
    for fam in ("normal", "exponential"):
        model = make_model(fam)
        marginal = fi_pros_marginal(model, rss_design(3), identity_alpha(3)).matrix.as_array()
        complete = fi_pros_complete(model, 3, 3).matrix.as_array()
        np.testing.assert_allclose(marginal, complete, atol=1e-8)


@pytest.mark.parametrize("fam", ["normal", "exponential"])
@pytest.mark.parametrize("set_size, n, p", [(24, 3, 0.8), (64, 4, 0.9)])
def test_marginal_information_is_scale_equivariant(fam, set_size, n, p):
    # every active parameter is a location or scale, so I(sigma) sigma^2 is free of sigma
    design = make_balanced_design(set_size, n)
    alpha = make_symmetric_alpha(n, p)
    scaled = [
        fi_pros_marginal(make_model(fam, sigma=sigma), design, alpha).matrix.as_array() * sigma**2
        for sigma in (0.01, 1.0, 100.0)
    ]
    for got in scaled:
        assert np.max(np.abs(got - scaled[1])) <= 1e-8 * np.max(np.abs(scaled[1])), (fam, scaled)


def test_marginal_rejects_unbalanced_designs():
    from prosinfo import Design

    with pytest.raises(InformationError):
        fi_pros_marginal(make_model("normal"), Design(6, ((1, 2), (3, 4, 5, 6))))
    with pytest.raises(DesignError):
        fi_pros_marginal(make_model("normal"), make_balanced_design(6, 2), identity_alpha(3))


def test_marginal_mc_agrees_with_quadrature():
    model = make_model("exponential")
    design = make_balanced_design(6, 2)
    alpha = make_symmetric_alpha(2, 0.8)
    quad = fi_pros_marginal(model, design, alpha).matrix.as_array()
    mc = fi_pros_marginal(model, design, alpha, method="mc", reps=20_000, seed=SEED)
    dev = np.abs(mc.matrix.as_array() - quad) / np.asarray(mc.std_errors)
    assert dev.max() <= 3.0


def test_unknown_method_rejected():
    with pytest.raises(InformationError):
        fi_pros_complete(make_model("normal"), 2, 6, method="bootstrap")


def test_unbalanced_balanced_case_matches_marginal():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    ud = UnbalancedDesign.from_design(design)
    alpha = make_symmetric_alpha(2, 0.75)
    a = fi_unbalanced(model, ud, {1: alpha}).matrix.as_array()
    b = fi_pros_marginal(model, design, alpha).matrix.as_array()
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_unbalanced_replications_multiply():
    from prosinfo import SetPlan

    model = make_model("normal")
    blocks = ((1, 2, 3, 4), (5, 6))
    sets = (SetPlan(1, blocks, 1), SetPlan(1, blocks, 2))
    one = fi_unbalanced(model, UnbalancedDesign(6, sets)).matrix.as_array()
    four = fi_unbalanced(model, UnbalancedDesign(6, sets, replications=4)).matrix.as_array()
    np.testing.assert_allclose(four, 4.0 * one, rtol=1e-12)


def test_unbalanced_mc_agrees_with_quadrature():
    from prosinfo import SetPlan

    model = make_model("normal")
    blocks = ((1, 2), (3, 4, 5, 6))
    ud = UnbalancedDesign(6, (SetPlan(1, blocks, 1), SetPlan(1, blocks, 2)))
    quad = fi_unbalanced(model, ud).matrix.as_array()
    mc = fi_unbalanced(model, ud, method="mc", reps=20_000, seed=SEED)
    dev = np.abs(mc.matrix.as_array() - quad) / np.asarray(mc.std_errors)
    assert dev.max() <= 3.0


def test_fi_result_metadata():
    model = make_model("normal")
    fi = fi_pros_complete(model, 2, 6)
    assert fi.p == 2
    assert fi.method == "quadrature"
    assert "complete" in fi.design_label
    assert fi.det() > 0.0
    marg = fi_pros_marginal(model, make_balanced_design(6, 2))
    assert "marginal" in marg.design_label


def test_regression_gain_normal_doubles_information():
    noise = make_model("normal")
    x = np.array([-1.0, 0.0, 1.0])
    srs, gain = regression_fi(noise, x, 1, 2)
    re1 = relative_efficiencies(srs + gain, srs)
    np.testing.assert_allclose(re1, 2.4877, atol=5e-3)
    trivial_srs, trivial_gain = regression_fi(noise, x, 1, 1)
    np.testing.assert_allclose(
        relative_efficiencies(trivial_srs + trivial_gain, trivial_srs), 1.0, atol=1e-12
    )


def test_regression_efficiency_ignores_covariate_spread():
    noise = make_model("normal")
    a = regression_fi(noise, np.array([-1.0, 0.0, 1.0]), 2, 4)
    b = regression_fi(noise, np.array([-5.0, -1.0, 2.0, 4.0]), 2, 4)
    np.testing.assert_allclose(
        relative_efficiencies(a[0] + a[1], a[0]),
        relative_efficiencies(b[0] + b[1], b[0]),
        rtol=1e-10,
    )


def test_regression_validation():
    noise = make_model("normal")
    with pytest.raises(InformationError, match="centered"):
        regression_fi(noise, np.array([1.0, 2.0, 3.0]), 1, 2)
    with pytest.raises(InformationError):
        regression_fi(make_model("exponential"), np.array([-1.0, 1.0]), 1, 2)
    with pytest.raises(InformationError):
        regression_fi(make_model("extreme_value"), np.array([-1.0, 1.0]), 1, 2)


def test_lemma_identity_smoke():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    check = verify_lemma_identity(model, design, lambda x: 1.0, reps=8_000, seed=SEED)
    assert check.reference == pytest.approx(10.0)
    assert abs(check.lambda0.value - check.reference) <= 3.0 * check.lambda0.std_error
    assert abs(check.lambda1.value - check.reference) <= 3.0 * check.lambda1.std_error
    assert check.lambda0.replications == 8_000


# -- Monte Carlo by the chain rule ----------------------------------------------


def test_uniform_family_is_rejected_by_every_route():
    from prosinfo import ModelError

    model = make_model("uniform")
    design = make_balanced_design(6, 2)
    ud = UnbalancedDesign.from_design(design)
    calls = [lambda: k_matrix(model, 2, 6), lambda: fisher_srs(model, 2)]
    for method in ("quadrature", "mc"):
        opts = dict(method=method, reps=2000, seed=SEED)
        calls += [
            lambda o=opts: fi_pros_complete(model, 2, 6, **o),
            lambda o=opts: fi_pros_marginal(model, design, make_symmetric_alpha(2, 0.8), **o),
            lambda o=opts: fi_unbalanced(model, ud, **o),
        ]
    for call in calls:
        with pytest.raises(ModelError, match="not FI-regular"):
            call()


def _oracle_logpdf_cdf(family, params, x):
    """log f and F from scipy.stats or the closed form, independent of prosinfo."""
    from scipy import stats

    if family == "exp_mixture":
        pi, h = params["pi"], params["h"]
        pdf = pi * h * np.exp(-h * x) + (1 - pi) * np.exp(-x)
        return np.log(pdf), 1 - pi * np.exp(-h * x) - (1 - pi) * np.exp(-x)
    dist = {
        "normal": lambda: stats.norm(params["mu"], params["sigma"]),
        "logistic": lambda: stats.logistic(params["mu"], params["sigma"]),
        "extreme_value": lambda: stats.gumbel_l(params["mu"], params["sigma"]),
        "exponential": lambda: stats.expon(scale=params["sigma"]),
        "gamma": lambda: stats.gamma(params["shape"], scale=params["sigma"]),
    }[family]()
    return dist.logpdf(x), dist.cdf(x)


def _oracle_neg_hessian(model, x, log_weight):
    """-Hessian of log f(x) + log_weight(F(x)) over the active parameters by central differences."""
    names = model.active
    base = dict(zip(model.param_names, model.params))
    steps = [1e-3 * max(abs(base[nm]), 1.0) for nm in names]

    def L(shift):
        params = dict(base)
        for j, d in shift.items():
            params[names[j]] += d * steps[j]
        logf, F = _oracle_logpdf_cdf(model.family, params, x)
        return logf + log_weight(F)

    def second(j, k, h):
        # Richardson extrapolation of the central difference with steps h and h/2
        def cd(s):
            if j == k:
                return (L({j: s}) - 2 * L({}) + L({j: -s})) / (s * steps[j]) ** 2
            return (L({j: s, k: s}) - L({j: s, k: -s}) - L({j: -s, k: s}) + L({j: -s, k: -s})) / (
                4 * s * s * steps[j] * steps[k]
            )

        return (4 * cd(h / 2) - cd(h)) / 3

    p = len(names)
    return np.stack([-second(j, k, 1.0) for j in range(p) for k in range(j, p)], axis=1)


ORACLE_MODELS = (
    ("normal", {}),
    ("exponential", {}),
    ("logistic", {}),
    ("extreme_value", {}),
    ("gamma", {"shape": 2.0, "sigma": 1.5}),
    ("exp_mixture", {}),
)


@pytest.mark.parametrize("family,params", ORACLE_MODELS)
@pytest.mark.parametrize("S", (6, 12))
@pytest.mark.parametrize("weights", ("complete", "perfect", "symmetric"))
def test_chain_rule_hessian_matches_difference_oracle(family, params, S, weights):
    from scipy import stats

    from prosinfo import densities, information

    model = make_model(family, **params)
    t = np.linspace(0.03, 0.97, 15)
    x = np.asarray(model.quantile(t))
    design = make_balanced_design(S, 3)
    if weights == "complete":
        u = 1 + np.arange(t.size) % S
        got = information._neg_hessian(model, x, *information._rank_logw_dt(S, u, model.cdf(x)))
        want = _oracle_neg_hessian(model, x, lambda F: stats.binom.logpmf(u - 1, S - 1, F))
    else:
        row = (identity_alpha(3) if weights == "perfect" else make_symmetric_alpha(3, 0.8)).row(2)
        coef = densities.rank_coefficients(S, design.subsets, row)
        w, w1, w2 = densities.bernstein_series(coef, model.cdf(x))
        got = information._neg_hessian(model, x, w1 / w, w2 / w - (w1 / w) ** 2)

        def log_weight(F):
            terms = [
                a * S / len(block) * sum(stats.binom.pmf(v - 1, S - 1, F) for v in block)
                for a, block in zip(row, design.subsets)
            ]
            return np.log(sum(terms))

        want = _oracle_neg_hessian(model, x, log_weight)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.max(np.abs(want)))


STRESS_MODELS = (
    ("normal", {}),
    ("exponential", {}),
    ("gamma", {"shape": 0.5}),
    ("exp_mixture", {"pi": 0.999, "h": 0.01}),
    ("extreme_value", {}),
)


@pytest.mark.parametrize("family,params", STRESS_MODELS)
@pytest.mark.parametrize("p", (1.0, 0.8))
def test_marginal_mc_at_set_size_64(family, params, p):
    model = make_model(family, **params)
    design = make_balanced_design(64, 4)
    alpha = make_symmetric_alpha(4, p)
    quad = fi_pros_marginal(model, design, alpha).matrix.as_array()
    mc = fi_pros_marginal(model, design, alpha, method="mc", reps=20_000, seed=SEED)
    assert np.all(np.isfinite(mc.matrix.as_array())) and np.all(np.asarray(mc.std_errors) > 0)
    dev = np.abs(mc.matrix.as_array() - quad) / np.asarray(mc.std_errors)
    assert dev.max() <= 5.0, (dev, quad, mc.matrix.as_array())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_non_finite_replicate_raises(monkeypatch):
    from prosinfo import sampling
    from prosinfo.numerics import ReplicateError

    real = sampling.block_draws

    def far_tail_first(model, *args):
        # at F(x) = 1e-300 upper-block weights underflow and their log derivatives overflow
        x, u = real(model, *args)
        x[0] = model.quantile(1e-300)
        return x, u

    monkeypatch.setattr(sampling, "block_draws", far_tail_first)
    design = make_balanced_design(64, 4)
    with pytest.raises(ReplicateError) as err:
        fi_pros_marginal(make_model("normal"), design, identity_alpha(4), method="mc", reps=100, seed=SEED)
    assert err.value.index == 0
    with pytest.raises(ReplicateError):
        fi_pros_complete(make_model("normal"), 4, 64, method="mc", reps=100, seed=SEED)
