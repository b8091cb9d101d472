"""End-to-end acceptance gate.

One test per published-results criterion, each at its stated tolerance, each
printing a single pass/fail line (run with -rA or -s to see them; pytest -v
shows one PASSED/FAILED line per criterion either way).

test_criterion_6a_balanced_partition_cell and
test_criterion_6b_steep_unbalanced_cell check the {1,2,3},{4,5,6} and
{1..5},{6} partitions against their exact values, 2.4825 and 2.483, from an
oracle built in the test with numpy and scipy only.  The printed 2.507 for the
balanced partition lies about 1.5 simulation SE from the exact value, so a check
against it could not catch a quadrature error of 1%.  The printed 8.026 for that cell is not checked: even knowing each
measured unit's exact rank, which the partition does not reveal, gives RE1 of
at most 5.42, because a block's mixture carries no more information than the
average of its order statistics.
"""

import math
import os
import threading

import numpy as np
import pytest
from scipy import integrate, stats

from prosinfo import (
    DEFAULT_SEED,
    DellClutterConfig,
    EntropyError,
    SetPlan,
    UnbalancedDesign,
    det_small,
    estimate_dell_clutter_alpha,
    fi_pros_complete,
    fi_pros_marginal,
    fi_unbalanced,
    fisher_srs,
    h_matrix,
    identity_alpha,
    k_matrix,
    kl_likelihood_chain,
    kl_pros_srs,
    make_balanced_design,
    make_model,
    make_symmetric_alpha,
    regression_fi,
    relative_efficiencies,
    renyi,
    rss_design,
    shannon,
    verify_lemma_identity,
)
from prosinfo.cli import RunConfig, run_table

REPS = 50_000
FAMILIES = ("normal", "exponential", "logistic")
COMBOS = ((2, 6), (3, 6), (2, 12))


def _ok(line):
    print(line)


# -- criterion 1: per-cycle efficiency constants ------------------------------


def test_criterion_1_efficiency_constants():
    cells = {
        (c.row_label, c.col_label): c.estimate
        for c in run_table(2, RunConfig(subcommand="table"))
    }
    pinned = {
        ("exponential scale", "re1_lin"): 0.4041,
        ("normal location", "re1_lin"): 0.4805,
        ("normal scale", "re1_lin"): 0.1350,
        ("normal location+scale", "re1_lin"): 0.6155,
        ("normal location+scale", "re1_quad"): 0.0649,
        ("extreme_value location", "re1_lin"): 0.4041,
        ("extreme_value scale", "re1_lin"): 0.2519,
        ("gamma(shape=2) scale", "re1_lin"): 0.4393,
    }
    for key, want in pinned.items():
        assert abs(cells[key] - want) <= 1e-3, (key, cells[key], want)

    # the logistic location constant is checked against a from-scratch
    # simulation oracle rather than a printed value
    rng = np.random.default_rng(DEFAULT_SEED)
    u = rng.uniform(size=1_000_000)
    cdf = u  # F(X) of any continuous X is uniform
    # (dF/dmu)^2 / (F(1-F)) = f^2 / (F(1-F)) = F(1-F) for the logistic
    oracle = np.mean(cdf * (1.0 - cdf)) / (1.0 / 3.0)
    got = cells[("logistic location", "re1_lin")]
    assert abs(got - oracle) <= 1e-3, (got, oracle)
    _ok("criterion 1: PASS — efficiency constants within ±0.001 "
        f"(logistic location {got:.4f} vs simulation oracle {oracle:.4f})")


# -- criterion 2: information decompositions ----------------------------------


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("n,S", COMBOS)
def test_criterion_2_information_decompositions(fam, n, S):
    model = make_model(fam)
    whole = fi_pros_complete(model, n, S).matrix.as_array()
    srs_plus_k = fisher_srs(model, n).as_array() + k_matrix(model, n, S).as_array()
    np.testing.assert_allclose(whole, srs_plus_k, atol=1e-8)
    rss_plus_h = fi_pros_complete(model, n, n).matrix.as_array() + h_matrix(model, n, S).as_array()
    np.testing.assert_allclose(whole, rss_plus_h, atol=1e-8)
    mc = fi_pros_complete(model, n, S, method="mc", reps=REPS, seed=DEFAULT_SEED)
    dev = np.abs(mc.matrix.as_array() - whole) / np.asarray(mc.std_errors)
    assert dev.max() <= 3.0, (fam, n, S, dev.max())
    _ok(f"criterion 2: PASS — {fam} (n={n}, S={S}) complete info = srs+K = rss+H "
        f"(1e-8) and MC within {dev.max():.2f} SE")


# -- criterion 3: score-moment identity under ranking -------------------------


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("g_name", ("one", "x"))
def test_criterion_3_rank_moment_identity(fam, g_name):
    model = make_model(fam)
    design = make_balanced_design(6, 2)
    fn = (lambda x: 1.0) if g_name == "one" else (lambda x: x)
    check = verify_lemma_identity(model, design, fn, reps=REPS, seed=DEFAULT_SEED)
    for est in (check.lambda0, check.lambda1):
        assert abs(est.value - check.reference) <= 3.0 * est.std_error, (
            fam, g_name, est.value, check.reference, est.std_error)
    _ok(f"criterion 3: PASS — {fam}, G={g_name}: both rank moments within 3 SE "
        f"of n(S-1)E[G] = {check.reference:.4f}")


# -- criterion 4: misplacement grid spot cells (simulation route) -------------


def _mc_efficiencies(model, n, S, p):
    alpha = make_symmetric_alpha(n, p)
    fi = fi_pros_marginal(
        model, make_balanced_design(S, n), alpha, method="mc", reps=REPS, seed=DEFAULT_SEED
    ).matrix
    re1 = relative_efficiencies(fi, fisher_srs(model, n))
    rss = fi_pros_marginal(
        model, rss_design(n), alpha, method="mc", reps=REPS, seed=DEFAULT_SEED
    ).matrix
    return re1, relative_efficiencies(fi, rss)


def test_criterion_4_misplacement_spot_cells():
    normal = make_model("normal")
    for p, want_re1, want_re2 in ((0.0, 2.48, 1.47), (0.5, 1.0, 1.0), (1.0, 2.48, 1.47)):
        re1, re2 = _mc_efficiencies(normal, 2, 6, p)
        assert abs(re1 - want_re1) <= 0.05, (p, re1)
        assert abs(re2 - want_re2) <= 0.05, (p, re2)
    re1, _ = _mc_efficiencies(make_model("exponential"), 3, 6, 1.0)
    assert abs(re1 - 2.44) <= 0.05, re1
    _ok("criterion 4: PASS — misplacement grid spot cells within ±0.05 at "
        f"{REPS} replications")


# -- criterion 5: simulated-ranker pipeline -----------------------------------


def test_criterion_5_simulated_ranker_pipeline():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    srs = fisher_srs(model, 2)
    for rho, want in ((0.25, 1.02), (0.90, 1.51), (1.00, 2.48)):
        alpha = estimate_dell_clutter_alpha(model, design, DellClutterConfig(rho, 5000, DEFAULT_SEED))
        re1 = relative_efficiencies(fi_pros_marginal(model, design, alpha), srs)
        assert abs(re1 - want) <= 0.05, (rho, re1, want)
    # a perfectly informative ranker reduces to exact block identification
    alpha_one = estimate_dell_clutter_alpha(model, design, DellClutterConfig(1.0, 5000, DEFAULT_SEED))
    assert alpha_one.is_identity
    mc = fi_pros_marginal(model, design, alpha_one, method="mc", reps=REPS, seed=DEFAULT_SEED)
    quad = fi_pros_marginal(model, design, identity_alpha(2)).matrix.as_array()
    dev = np.abs(mc.matrix.as_array() - quad) / np.asarray(mc.std_errors)
    assert dev.max() <= 3.0, dev.max()
    _ok("criterion 5: PASS — ranker-calibrated efficiencies within ±0.05 and the "
        f"perfect-ranker path agrees with exact subsetting within {dev.max():.2f} SE")


# -- criterion 6: single-partition designs against their published cells ------


def _unbalanced_re1_mc(blocks):
    model = make_model("normal")
    ud = UnbalancedDesign(set_size=6, sets=tuple(
        SetPlan(1, blocks, r) for r in range(1, len(blocks) + 1)
    ))
    fi = fi_unbalanced(model, ud, method="mc", reps=REPS, seed=DEFAULT_SEED)
    m = fi.matrix.as_array()
    se = np.asarray(fi.std_errors)
    den = det_small(fisher_srs(model, len(blocks)).as_array())
    re1 = det_small(m) / den
    # first-order propagation of the entry errors through the determinant
    se_re1 = math.sqrt(
        (m[1, 1] * se[0, 0]) ** 2 + (m[0, 0] * se[1, 1]) ** 2 + (2 * m[0, 1] * se[0, 1]) ** 2
    ) / den
    return re1, se_re1


def test_criterion_6a_balanced_partition_cell():
    blocks = ((1, 2, 3), (4, 5, 6))
    re1, se = _unbalanced_re1_mc(blocks)
    oracle = _normal_partition_re1_oracle(blocks)
    quad = _unbalanced_re1_quad(blocks)
    report = (f"{{1,2,3}},{{4,5,6}} RE1: oracle {oracle:.7f}, simulation {re1:.4f} "
              f"(SE {se:.4f}), quadrature {quad:.7f}; published 2.507")
    assert abs(quad - oracle) <= 1e-6 * oracle, report
    assert abs(re1 - oracle) <= 4.0 * se, report
    _ok(f"criterion 6a: PASS — {report}")


def _unbalanced_re1_quad(blocks):
    model = make_model("normal")
    ud = UnbalancedDesign(set_size=6, sets=tuple(
        SetPlan(1, blocks, r) for r in range(1, len(blocks) + 1)
    ))
    return relative_efficiencies(fi_unbalanced(model, ud).matrix,
                                 fisher_srs(model, len(blocks)))


def _normal_partition_re1_oracle(blocks, set_size=6):
    """RE1 of one perfectly ranked normal unit per block, from numpy and scipy only.

    A unit measured from block B has density f(z) w(F(z)), where w averages the
    order-statistic weights S C(S-1, r-1) F^(r-1) (1-F)^(S-r) over r in B, so
    its location score is z - f w'(F)/w(F) and its scale score is z times that
    minus one.  The integrands are below 1e-28 beyond |z| = 12.
    """
    def block_information(block):
        terms = [(r, set_size * math.comb(set_size - 1, r - 1)) for r in block]

        def integrand(z):
            u, v, f = stats.norm.cdf(z), stats.norm.sf(z), stats.norm.pdf(z)
            w = sum(c * u ** (r - 1) * v ** (set_size - r) for r, c in terms)
            dw = sum(c * ((r - 1) * u ** max(r - 2, 0) * v ** (set_size - r)
                          - (set_size - r) * u ** (r - 1) * v ** max(set_size - r - 1, 0))
                     for r, c in terms)
            loc = z - f * dw / w
            score = np.array([loc, z * loc - 1.0])
            return np.outer(score, score) * f * w / len(block)

        return integrate.quad_vec(integrand, -12.0, 12.0, epsabs=1e-13, epsrel=1e-12)[0]

    info = sum(block_information(block) for block in blocks)
    # the SRS information of one N(mu, sigma) unit is diag(1, 2)
    return np.linalg.det(info) / np.linalg.det(len(blocks) * np.diag([1.0, 2.0]))


def test_criterion_6b_steep_unbalanced_cell():
    blocks = ((1, 2, 3, 4, 5), (6,))
    re1, se = _unbalanced_re1_mc(blocks)
    oracle = _normal_partition_re1_oracle(blocks)
    quad = _unbalanced_re1_quad(blocks)
    mirrored = _unbalanced_re1_quad(((1,), (2, 3, 4, 5, 6)))
    report = (f"{{1..5}},{{6}} RE1: oracle {oracle:.7f}, simulation {re1:.4f} "
              f"(SE {se:.4f}), quadrature {quad:.7f}, mirrored {{1}},{{2..6}} "
              f"{mirrored:.7f}")
    assert abs(re1 - oracle) <= 4.0 * se, report
    assert abs(quad - oracle) <= 1e-6 * oracle, report
    # reflecting the partition of a symmetric parent leaves the determinant alone
    assert abs(mirrored - quad) <= 1e-8 * quad, report
    _ok(f"criterion 6b: PASS — {report}")


# -- criterion 7: regression with ranked residual information -----------------


def test_criterion_7_regression_closed_form():
    noise = make_model("normal")
    x = np.array([-1.0, 0.0, 1.0])
    for S in (2, 3, 4, 5, 6):
        srs, gain = regression_fi(noise, x, 1, S)
        got = relative_efficiencies(srs.as_array() + gain.as_array(), srs)
        want = (1.0 + 0.4805 * (S - 1)) ** 2 * (1.0 + 0.1350 * (S - 1))
        assert abs(got - want) <= 0.005 * want, (S, got, want)
    _ok("criterion 7: PASS — regression efficiency matches "
        "{1+0.4805(S-1)}^2 {1+0.1350(S-1)} within 0.5% for S=2..6")


# -- criterion 8: entropy and divergence properties ---------------------------


ENTROPY_FAMILIES = ("normal", "exponential", "logistic", "uniform")
SET_SIZES = (2, 4, 6, 12)


def _divisors(S):
    return [n for n in range(1, S + 1) if S % n == 0]


def test_criterion_8_entropy_properties():
    for fam in ENTROPY_FAMILIES:
        model = make_model(fam)
        for S in SET_SIZES:
            for n in _divisors(S):
                report = shannon(model, kind="pros", n=n, set_size=S)
                assert report.lower_bound <= report.total + 1e-6, (fam, S, n)
                assert report.total <= report.upper_bound + 1e-6, (fam, S, n)
                for order in (0.25, 0.5, 0.75):
                    rr = renyi(model, order, kind="pros", n=n, set_size=S)
                    assert rr.lower_bound <= rr.total + 1e-6, (fam, S, n, order)
                    assert rr.total <= rr.upper_bound + 1e-6, (fam, S, n, order)
    for fam in ("normal", "exponential", "logistic"):
        model = make_model(fam)
        for S in SET_SIZES:
            for n in _divisors(S):
                lo, mid, hi = kl_likelihood_chain(model, make_balanced_design(S, n), shift=0.5)
                assert lo <= mid + 1e-9, (fam, S, n)
                assert mid <= hi + 1e-6, (fam, S, n)
    # a disjoint-support comparison must be reported, not silently truncated
    with pytest.raises(EntropyError):
        kl_likelihood_chain(make_model("uniform"), make_balanced_design(6, 2), shift=0.5)
    # analytic uniform checkpoints
    pair = make_balanced_design(2, 2)
    assert abs(shannon(make_model("uniform"), kind="pros", n=2, set_size=2).total
               - (1.0 - 2.0 * math.log(2.0))) <= 1e-5
    assert abs(kl_pros_srs(make_model("uniform"), pair) - (2.0 * math.log(2.0) - 1.0)) <= 1e-5
    assert abs(renyi(make_model("uniform"), 0.5, kind="pros", n=2, set_size=2).total
               - 4.0 * math.log(2.0 * math.sqrt(2.0) / 3.0)) <= 1e-5
    _ok("criterion 8: PASS — entropy bounds, divergence chain, and uniform "
        "closed forms hold on the full family/set-size grid")


# -- criterion 9: bit-for-bit reproducibility across schedulers ---------------


def test_criterion_9_worker_count_reproducibility(capsys, monkeypatch):
    # every worker count runs as many workers as it names, up to the chunk count, on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    pairs = []
    for workers in (1, 2, 3, 7):
        c = fi_pros_complete(model, 2, 6, method="mc", reps=20_000, seed=DEFAULT_SEED,
                             workers=workers)
        m = fi_pros_marginal(model, design, make_symmetric_alpha(2, 0.8), method="mc",
                             reps=20_000, seed=DEFAULT_SEED, workers=workers)
        u = fi_unbalanced(model, design, method="mc", reps=20_000, seed=DEFAULT_SEED,
                          workers=workers)
        lem = verify_lemma_identity(model, design, lambda x: x, reps=20_000,
                                    seed=DEFAULT_SEED, workers=workers)
        # at S = 64 the Bernstein point blocks are narrower than a chunk, and the short last chunk shares a pass
        wide = fi_pros_marginal(make_model("logistic"), make_balanced_design(64, 4), method="mc",
                                reps=3 * 4096 + 77, seed=9, workers=workers)
        pairs.append((c, m, u, wide, lem))
    for other in pairs[1:]:
        for a, b in zip(pairs[0][:4], other[:4]):
            assert np.array_equal(a.matrix.as_array(), b.matrix.as_array())
            assert np.array_equal(np.asarray(a.std_errors), np.asarray(b.std_errors))
        la, lb = pairs[0][4], other[4]
        assert (la.lambda0.value, la.lambda0.std_error) == (lb.lambda0.value, lb.lambda0.std_error)
        assert (la.lambda1.value, la.lambda1.std_error) == (lb.lambda1.value, lb.lambda1.std_error)
    assert [t.name for t in threading.enumerate() if t.name.startswith("mc-worker")] == []  # every worker joined

    # the command line inherits the same guarantee, byte for byte
    from prosinfo.cli import main

    args = ["fisher", "--family", "normal", "--set-size", "6", "--subsets", "2",
            "--method", "mc", "--reps", "20000", "--seed", str(DEFAULT_SEED)]
    assert main(args + ["--workers", "1"]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--workers", "6"]) == 0
    assert capsys.readouterr().out == first
    _ok("criterion 9: PASS — simulation outputs are bit-identical for any "
        "worker count at a fixed seed, through the library and the CLI")
