import numpy as np
import pytest

from prosinfo import (
    DesignError,
    InfoMatrix,
    InformationError,
    MisplacementMatrix,
    UnbalancedDesign,
    densities,
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
    verify_lemma_identity,
)
from prosinfo.models import unit_entries
from prosinfo.numerics import integrate_gram

SEED = 4511


def test_fisher_srs_scales_with_count():
    model = make_model("normal")
    one = fisher_srs(model, 1).as_array()
    np.testing.assert_allclose(one, np.diag([1.0, 2.0]), atol=1e-9)
    np.testing.assert_allclose(fisher_srs(model, 7).as_array(), 7.0 * one, atol=1e-9)
    with pytest.raises(InformationError):
        fisher_srs(model, 0)


@pytest.mark.parametrize("family", ("normal", "gamma", "exp_mixture"))
def test_quadrature_routes_match_chained_info_matrix_arithmetic(family):
    # each route sums plain arrays into one InfoMatrix: the same bits as the InfoMatrix chains it replaced
    model = make_model(family)
    n, S, cycles, alpha = 3, 12, 7, make_symmetric_alpha(3, 0.7)
    design = make_balanced_design(S, n, cycles)

    def cdf_scores(t, s):
        return model.score_cdf(model.quantile(t, s)).T[:, None], (1.0 / (t * s))[None]

    unit = model.fisher_srs_unit()
    k = InfoMatrix(n * (S - 1) * integrate_gram(cdf_scores, model.p))
    for got, want in (
        (fisher_srs(model, 7), unit.scaled(7)),
        (k_matrix(model, n, S), k),
        (h_matrix(model, n, S), k.scaled((S - n) / (S - 1))),
        (fi_pros_complete(model, n, S, cycles).matrix, InfoMatrix(unit.scaled(n).entries + k.entries).scaled(cycles)),
        (
            fi_pros_marginal(model, design, alpha).matrix,
            fi_unbalanced(model, design, {1: alpha}).matrix,
        ),
    ):
        assert got.entries.tobytes() == want.entries.tobytes()


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
        parts = fisher_srs(model, 2).as_array() + k_matrix(model, 2, 6).as_array()
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
    fi = fi_pros_marginal(model, design, MisplacementMatrix(np.full((2, 2), 1 / 2)))
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


@pytest.mark.parametrize("sigma", (1e-150, 1e-100, 1e100, 1e150))
def test_relative_efficiency_is_free_of_the_scale(sigma):
    # the determinants of (6, 2) information leave the double range beyond |log10 sigma| of about 77
    design, alpha = make_balanced_design(6, 2), make_symmetric_alpha(2, 0.8)
    rss = rss_design(2)

    def efficiencies(model):
        fi = fi_pros_marginal(model, design, alpha)
        return (relative_efficiencies(fi, fisher_srs(model, 2)),
                relative_efficiencies(fi, fi_pros_marginal(model, rss, alpha)))

    np.testing.assert_allclose(efficiencies(make_model("normal", sigma=sigma)), efficiencies(make_model("normal")),
                               rtol=1e-13)


def test_marginal_rejects_unbalanced_designs():
    from prosinfo import Design, SetPlan

    blocks = ((1, 2), (3, 4, 5, 6))
    with pytest.raises(InformationError, match="^design is unbalanced; use fi_unbalanced$"):
        fi_pros_marginal(make_model("normal"), Design(6, (SetPlan(1, blocks, 1), SetPlan(1, blocks, 2))))
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


# members with two free parameters, away from location 0 and scale 1 where they have them
TWO_PARAMETER = [
    ("normal", {"mu": 2.0, "sigma": 3.0}),
    ("logistic", {}),
    ("extreme_value", {"mu": 0.3, "sigma": 1.7}),
    ("exp_mixture", {"pi": 0.3, "h": 0.4}),
]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fam,params", TWO_PARAMETER, ids=[f for f, _ in TWO_PARAMETER])
def test_reordering_or_subsetting_the_active_parameters_permutes_every_route(fam, params):
    full = make_model(fam, **params)
    x = np.asarray(full.quantile(np.linspace(0.02, 0.98, 9)))
    a, b = np.linspace(-2.0, 2.0, 9), np.linspace(-3.0, 1.0, 9)
    design, alpha = make_balanced_design(6, 2), make_symmetric_alpha(2, 0.8)

    def routes(model):
        rows, cols = np.triu_indices(model.p)
        hessian = np.zeros((x.size, model.p, model.p))
        hessian[:, rows, cols] = hessian[:, cols, rows] = model.neg_hessian(x, a, b)
        mc = fi_pros_marginal(model, design, alpha, method="mc", reps=2000, seed=SEED)
        exact = [unit_entries(model), fi_pros_marginal(model, design, alpha).matrix.as_array()]
        return [model.score_cdf(x), model.score_logpdf(x), hessian, mc.matrix.as_array(), mc.std_errors], exact

    bitwise, exact = routes(full)
    for active in ((full.active[1], full.active[0]), full.active[:1], full.active[1:]):
        idx = [full.active.index(n) for n in active]
        got_bitwise, got_exact = routes(make_model(fam, active=active, **params))
        want = [bitwise[0][:, idx], bitwise[1][:, idx], bitwise[2][:, idx][:, :, idx]]
        want += [np.asarray(m)[np.ix_(idx, idx)] for m in bitwise[3:]]
        for k, (g, w) in enumerate(zip(got_bitwise, want, strict=True)):
            assert _same_bits(g, w), (active, k)
        for g, w in zip(got_exact, exact, strict=True):
            w = w[np.ix_(idx, idx)]
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-14 * np.abs(w).max(), err_msg=str(active))


def test_unknown_method_rejected():
    with pytest.raises(InformationError):
        fi_pros_complete(make_model("normal"), 2, 6, method="bootstrap")


@pytest.mark.parametrize("method", ("quadrature", "mc"))
@pytest.mark.parametrize("n, set_size", ((4, 6), (6, 2), (5, 12)))
def test_complete_information_refuses_a_design_that_cannot_exist(n, set_size, method):
    # n blocks of equal size cannot partition S ranks unless n divides S
    with pytest.raises(InformationError, match=f"n={n} does not divide set_size={set_size}"):
        fi_pros_complete(make_model("normal"), n, set_size, method=method, reps=100)


def test_unbalanced_balanced_case_matches_marginal():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    alpha = make_symmetric_alpha(2, 0.75)
    a = fi_unbalanced(model, design, {1: alpha}).matrix.as_array()
    b = fi_pros_marginal(model, design, alpha).matrix.as_array()
    np.testing.assert_allclose(a, b, atol=1e-6)


GATE_FAMILIES = ("normal", "logistic", "exponential", "extreme_value", "gamma", "exp_mixture")


@pytest.mark.parametrize("family", GATE_FAMILIES)
@pytest.mark.parametrize("S,n", ((6, 2), (12, 3), (24, 4), (64, 4)))
def test_marginal_information_matches_srs_plus_gain_decomposition(family, S, n):
    # oracle: n I_srs from the unit matrix plus the ranking gain sum_r E[(d g_r)(d g_r)^T / g_r], the
    # kernel with v = (g_r' / g_r) dF and w = g_r; at p = 1/n every g_r is 1 and the gain vanishes
    model = make_model(family)
    ud = make_balanced_design(S, n)
    unit = model.fisher_srs_unit().entries
    for p in (0.3, 0.7, 1.0, 1.0 / n):
        alpha = make_symmetric_alpha(n, p)
        rows = ud.measured_rows({1: alpha})
        coefs = np.stack([densities.rank_coefficients(S, sp.partition, row) for sp, row in rows])

        def tilted_cdf_scores(t, s):
            g, gd, _ = densities.bernstein_series(coefs, t, s)
            return (gd / g) * model.score_cdf(model.quantile(t, s)).T[:, None], g

        want = n * unit + (0.0 if p == 1.0 / n else integrate_gram(tilted_cdf_scores, model.p))
        got = fi_unbalanced(model, ud, {1: alpha}).matrix.as_array()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (p, got, want)


PARITY_MODELS = (*((f, {}) for f in GATE_FAMILIES if f != "gamma"), ("gamma", {"shape": 0.5}), ("gamma", {"shape": 2.0}))


@pytest.mark.parametrize("family, params", PARITY_MODELS)
@pytest.mark.parametrize("S, n", ((2, 2), (6, 1), (6, 3), (12, 4), (64, 4)))
@pytest.mark.parametrize("cycles", (1, 3))
def test_balanced_quadrature_matches_its_unbalanced_design_bit_for_bit(family, params, S, n, cycles):
    # fi_pros_marginal hands the design's one run of sets, its misplacement matrix, to the kernel that
    # fi_unbalanced runs on the rows it stacks per run
    model = make_model(family, **params)
    design = make_balanced_design(S, n, cycles)
    alphas = [None, MisplacementMatrix(np.full((n, n), 1.0 / n))] + ([make_symmetric_alpha(n, 0.6)] if n > 1 else [])
    for alpha in alphas:
        got = fi_pros_marginal(model, design, alpha)
        want = fi_unbalanced(model, design, {1: alpha})
        assert got.method == want.method == "quadrature"
        assert got.matrix.entries.tobytes() == want.matrix.entries.tobytes(), alpha
    wrong = make_symmetric_alpha(n + 1, 0.6)
    with pytest.raises(DesignError) as balanced:
        fi_pros_marginal(model, design, wrong)
    with pytest.raises(DesignError) as unbalanced:
        fi_unbalanced(model, design, {1: wrong})
    assert type(balanced.value) is type(unbalanced.value) and str(balanced.value) == str(unbalanced.value)


def test_lemma_identity_refuses_a_design_that_does_not_measure_each_block_once():
    # with block 1 measured twice, one replicate is not a perfect cycle and the identity's reference does not hold
    from prosinfo import Design, SetPlan

    blocks = ((1, 2, 3), (4, 5, 6))
    for sets in ((SetPlan(1, blocks, 1), SetPlan(1, blocks, 1)), (SetPlan(1, blocks, 2),)):
        with pytest.raises(InformationError, match="each block of the partition once"):
            verify_lemma_identity(make_model("normal"), Design(6, sets), lambda x: x, reps=100)
    unequal = Design(6, (SetPlan(1, ((1, 2), (3, 4, 5, 6)), 2), SetPlan(1, ((1, 2), (3, 4, 5, 6)), 1)))
    check = verify_lemma_identity(make_model("normal"), unequal, lambda x: x * x, reps=8_000, seed=SEED)
    assert check.reference == pytest.approx(10.0)
    assert abs(check.lambda0.value - check.reference) <= 4.0 * check.lambda0.std_error
    assert abs(check.lambda1.value - check.reference) <= 4.0 * check.lambda1.std_error


def test_balanced_entries_never_call_the_unbalanced_names(monkeypatch):
    # fi_pros_marginal and draw_pros run the shared private cores themselves, so a traced request through
    # either counts one call
    from prosinfo import draw_pros, information, sampling

    def refuse(*args, **kwargs):
        raise AssertionError("a balanced entry called the unbalanced one")

    monkeypatch.setattr(information, "fi_unbalanced", refuse)
    monkeypatch.setattr(sampling, "draw_unbalanced_pros", refuse)
    model, design, alpha = make_model("normal"), make_balanced_design(6, 2), make_symmetric_alpha(2, 0.8)
    assert fi_pros_marginal(model, design, alpha).design_label == "PROS(n=2, S=6, N=1) marginal"
    assert fi_pros_marginal(model, design, alpha, method="mc", reps=2000, seed=SEED).method == "mc"
    assert draw_pros(model, design, alpha, seed=SEED).design_label == "PROS(n=2, S=6, N=1)"


def test_unbalanced_rejects_a_matrix_for_a_missing_cycle():
    ud = make_balanced_design(6, 2)
    with pytest.raises(DesignError, match="cycle 2"):
        fi_unbalanced(make_model("normal"), ud, {2: make_symmetric_alpha(2, 0.6)})


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
    re1 = relative_efficiencies(srs.as_array() + gain.as_array(), srs)
    np.testing.assert_allclose(re1, 2.4877, atol=5e-3)
    trivial_srs, trivial_gain = regression_fi(noise, x, 1, 1)
    np.testing.assert_allclose(
        relative_efficiencies(trivial_srs.as_array() + trivial_gain.as_array(), trivial_srs), 1.0, atol=1e-12
    )


def test_regression_efficiency_ignores_covariate_spread():
    noise = make_model("normal")
    a = regression_fi(noise, np.array([-1.0, 0.0, 1.0]), 2, 4)
    b = regression_fi(noise, np.array([-5.0, -1.0, 2.0, 4.0]), 2, 4)
    np.testing.assert_allclose(
        relative_efficiencies(a[0].as_array() + a[1].as_array(), a[0]),
        relative_efficiencies(b[0].as_array() + b[1].as_array(), b[0]),
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


@pytest.mark.parametrize("workers", [0, -4])
def test_mc_routes_reject_workers_below_one(workers):
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    calls = [
        lambda: fi_pros_complete(model, 2, 6, method="mc", reps=5000, workers=workers),
        lambda: fi_pros_marginal(model, design, make_symmetric_alpha(2, 0.8), method="mc", reps=5000, workers=workers),
        lambda: fi_unbalanced(model, design, method="mc", reps=5000, workers=workers),
        lambda: verify_lemma_identity(model, design, lambda x: x, reps=5000, workers=workers),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="workers >= 1"):
            call()


# -- Monte Carlo by the chain rule ----------------------------------------------


def test_uniform_family_is_rejected_by_every_route():
    from prosinfo import ModelError

    model = make_model("uniform")
    design = make_balanced_design(6, 2)
    calls = [lambda: k_matrix(model, 2, 6), lambda: fisher_srs(model, 2),
             lambda: regression_fi(model, [-1.0, 1.0], 2, 3)]
    for method in ("quadrature", "mc"):
        opts = dict(method=method, reps=2000, seed=SEED)
        calls += [
            lambda o=opts: fi_pros_complete(model, 2, 6, **o),
            lambda o=opts: fi_pros_marginal(model, design, make_symmetric_alpha(2, 0.8), **o),
            lambda o=opts: fi_unbalanced(model, design, **o),
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
    ("normal", {"active": ("sigma",)}),
    ("logistic", {"active": ("mu",)}),
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
        got = model.neg_hessian(x, *information._rank_logw_dt(S, u, model.cdf(x)))
        want = _oracle_neg_hessian(model, x, lambda F: stats.binom.logpmf(u - 1, S - 1, F))
    else:
        row = (identity_alpha(3) if weights == "perfect" else make_symmetric_alpha(3, 0.8)).row(2)
        coef = densities.rank_coefficients(S, design.subsets, row)
        w, w1, w2 = densities.bernstein_series(coef, model.cdf(x))
        got = model.neg_hessian(x, w1 / w, w2 / w - (w1 / w) ** 2)

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


@pytest.mark.parametrize("shape", (0.01, 1.0, 2.0, 10.0))
def test_mc_of_gamma_with_a_small_shape_agrees_with_quadrature(shape):
    # at shape 0.01 about 3% of draws lie below z = 1.5e-154, where the chain rule's products overflow;
    # the shapes lie on both sides of the cut below which the quantile is gammaincinv alone
    model = make_model("gamma", shape=shape)
    quad = fi_pros_complete(model, 2, 6).matrix.as_array()
    mc = fi_pros_complete(model, 2, 6, method="mc", reps=20_000, seed=SEED)
    assert np.abs(mc.matrix.as_array() - quad).max() <= 5.0 * np.asarray(mc.std_errors).max()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_non_finite_replicate_raises(monkeypatch):
    from prosinfo import sampling
    from prosinfo.numerics import ReplicateError

    real = sampling.block_draws

    def far_tail_first(model, *args):
        # at F(x) = 1e-300 upper-block weights underflow and their log derivatives overflow
        x, u, t = real(model, *args)
        x[0], t[0] = model.quantile(1e-300), 1e-300
        return x, u, t

    monkeypatch.setattr(sampling, "block_draws", far_tail_first)
    design = make_balanced_design(64, 4)
    with pytest.raises(ReplicateError) as err:
        fi_pros_marginal(make_model("normal"), design, identity_alpha(4), method="mc", reps=100, seed=SEED)
    assert err.value.index == 0
    with pytest.raises(ReplicateError):
        fi_pros_complete(make_model("normal"), 4, 64, method="mc", reps=100, seed=SEED)


def test_mc_batches_use_the_drawn_quantile_and_analytic_hessians(monkeypatch):
    from prosinfo import Model, SetPlan

    def forbidden(*args, **kwargs):
        raise AssertionError("Monte Carlo batches must not rebuild models or recompute F(x)")

    model = make_model("normal")
    ud = UnbalancedDesign(6, (SetPlan(1, ((1, 2), (3, 4, 5, 6)), 1), SetPlan(1, ((1, 2), (3, 4, 5, 6)), 2)))
    alphas = {1: make_symmetric_alpha(2, 0.8)}
    want = (fi_pros_complete(model, 2, 6).matrix.as_array(), fi_unbalanced(model, ud, alphas).matrix.as_array())
    monkeypatch.setattr(Model, "with_params", forbidden)
    monkeypatch.setattr(Model, "cdf", forbidden)
    complete = fi_pros_complete(model, 2, 6, method="mc", reps=20_000, seed=SEED)
    unbalanced = fi_unbalanced(model, ud, alphas, method="mc", reps=20_000, seed=SEED)
    for fi, quad in zip((complete, unbalanced), want):
        assert np.all(np.abs(fi.matrix.as_array() - quad) <= 5.0 * np.asarray(fi.std_errors))
    check = verify_lemma_identity(model, make_balanced_design(6, 2), lambda x: np.exp(-x * x), reps=20_000, seed=SEED)
    for side in (check.lambda0, check.lambda1):
        assert abs(side.value - check.reference) <= 5.0 * side.std_error


def _memo_routes():
    """One result per quadrature route that reads node_memo, as raw bytes."""
    from prosinfo import entropy, numerics
    from prosinfo.designs import SetPlan

    normal, mixture = make_model("logistic", mu=0.5, sigma=2.0), make_model("exp_mixture", pi=0.3, h=4.0)
    ud = UnbalancedDesign(6, (SetPlan(1, ((1, 2), (3, 4, 5, 6)), 1), SetPlan(1, ((1, 2), (3, 4, 5, 6)), 2),
                              SetPlan(2, ((1,), (2, 3, 4, 5), (6,)), 3), SetPlan(2, ((1, 2, 3), (4,), (5, 6)), 1)))
    alphas = {1: make_symmetric_alpha(2, 0.8), 2: make_symmetric_alpha(3, 0.6)}
    report = entropy.shannon(mixture, "pros", 3, 12)
    return [
        np.asarray(fi_unbalanced(normal, ud, alphas).matrix).tobytes(),
        np.asarray(fi_pros_marginal(mixture, make_balanced_design(12, 4), make_symmetric_alpha(4, 0.7)).matrix).tobytes(),
        np.asarray(k_matrix(normal, 2, 6)).tobytes(),
        np.asarray(k_matrix(mixture, 3, 12)).tobytes(),
        np.asarray(numerics.InfoMatrix(mixture.fisher_srs_unit())).tobytes(),
        repr(report).encode(),
    ]


def test_memo_empty_filled_and_bypassed_give_identical_bits(monkeypatch):
    from prosinfo import numerics

    numerics._memo.clear()
    empty = _memo_routes()
    assert numerics._memo  # the routes filled it
    filled = _memo_routes()
    monkeypatch.setattr(numerics, "_UNIT_INDEX", {})  # every build runs again, outside the memo
    numerics._memo.clear()
    bypassed = _memo_routes()
    assert not numerics._memo
    assert empty == filled == bypassed


def test_models_differing_in_a_parameter_or_active_keep_their_own_scores():
    from prosinfo import numerics

    numerics._memo.clear()
    node, comp = numerics._T[0], numerics._S[0]
    models = [make_model("normal"), make_model("normal", mu=1e-12), make_model("normal", active=("sigma",)),
              make_model("logistic")]
    tables = [m.quantile_scores(node, comp) for m in models]
    assert len(numerics._memo) == len(models)
    for model, table in zip(models, tables):
        assert model.quantile_scores(node, comp) is table
        fresh = model.quantile_scores(node.copy(), comp)  # not a node array: built outside the memo
        assert [a.tobytes() for a in table] == [a.tobytes() for a in fresh]
        assert len(table) == 2  # (d log f, dF)
        assert all(a.shape == (model.p, node.size) and a.flags.c_contiguous for a in table)


def test_monte_carlo_draws_never_enter_the_memo():
    from prosinfo import numerics

    numerics._memo.clear()
    model, alpha = make_model("normal"), make_symmetric_alpha(2, 0.8)
    fi_pros_marginal(model, make_balanced_design(6, 2), alpha, method="mc", reps=500, seed=SEED)
    fi_pros_complete(model, 2, 6, method="mc", reps=500, seed=SEED)
    assert not numerics._memo


def test_a_second_alpha_on_a_partition_reads_its_block_weight_tables(monkeypatch):
    from prosinfo import numerics

    numerics._memo.clear()
    model, design, calls = make_model("logistic"), make_balanced_design(12, 3), []
    series = densities.bernstein_series

    def counted(*args, **kwargs):
        calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(densities, "bernstein_series", counted)
    fi_pros_marginal(model, design, make_symmetric_alpha(3, 0.8))
    assert calls  # the first call on the partition builds its tables
    calls.clear()
    fi_pros_marginal(model, design, make_symmetric_alpha(3, 0.3))
    fi_pros_marginal(model, design)
    assert not calls


def test_fisher_and_entropy_routes_share_one_block_weight_table(monkeypatch):
    # the balanced designs' partitions and the singletons of S = 6, from the Fisher routes first
    from prosinfo import entropy, numerics
    from prosinfo.designs import SetPlan
    from prosinfo.models import Model

    numerics._memo.clear()
    model, design, built = make_model("logistic"), make_balanced_design(6, 2), {"fisher": set(), "entropy": set()}
    series, route = densities.bernstein_series, ["fisher"]

    def counted(coef, t, s=None):
        built[route[0]].add((np.asarray(coef).tobytes(), numerics._UNIT_INDEX.get(id(t))))
        return series(coef, t, s)

    monkeypatch.setattr(densities, "bernstein_series", counted)
    fi_pros_marginal(model, design, make_symmetric_alpha(2, 0.8))
    fi_pros_marginal(model, make_balanced_design(6, 6))  # the singleton partition
    ud = UnbalancedDesign(6, (SetPlan(1, ((1, 2), (3, 4, 5, 6)), 1), SetPlan(1, ((1, 2), (3, 4, 5, 6)), 2),
                              SetPlan(2, ((1,), (2, 3, 4, 5), (6,)), 3), SetPlan(2, ((1,), (2, 3, 4, 5), (6,)), 1)))
    fi_unbalanced(model, ud, {1: make_symmetric_alpha(2, 0.8), 2: make_symmetric_alpha(3, 0.6)})
    assert built["fisher"]
    route[0] = "entropy"
    entropy.shannon(model, "pros", 2, 6)
    entropy.renyi(model, 0.5, "pros", 2, 6)
    entropy.kl_likelihood_chain(model, design)
    assert not built["entropy"] & built["fisher"]  # no table the Fisher routes built is built again
    for key, _ in numerics._memo:
        assert isinstance(key, Model) or (key[:2] == ("blocks", 6) and len(key) == 3)
    partitions = {key[2] for key, _ in numerics._memo if not isinstance(key, Model)}
    assert partitions == {design.subsets, make_balanced_design(6, 6).subsets, *(sp.partition for sp in ud.sets)}


def _table_cases():
    """(S, partition, alpha rows): perfect, symmetric and uniform (p = 1/n) rows on each partition."""
    partitions = [(S, make_balanced_design(S, n).subsets) for S, n in
                  ((1, 1), (2, 2), (6, 2), (6, 3), (12, 3), (12, 4), (24, 4), (64, 4))]
    partitions += [(6, ((1, 2), (3, 4, 5, 6))), (6, ((1,), (2, 3, 4, 5), (6,)))]  # the design-file partitions
    for S, part in partitions:
        n = len(part)
        alphas = [np.eye(n)] + ([make_symmetric_alpha(n, 0.8).entries, np.full((n, n), 1.0 / n)] if n > 1 else [])
        yield from ((S, part, a) for a in alphas)


@pytest.mark.parametrize("S, partition, alpha", list(_table_cases()))
def test_mixed_block_weight_tables_match_the_bernstein_series_of_the_mixed_rows(S, partition, alpha):
    from prosinfo import numerics

    for t, s in zip(numerics._T, numerics._S):
        g, gd = alpha @ densities.block_table(S, partition, t, s)
        want, want_d, _ = densities.bernstein_series(densities.rank_coefficients(S, partition, alpha), t, s)
        assert np.all(np.abs(g - want) <= 1e-14 * want)  # also 0 where the series underflows to 0
        live = want > 0.0
        ratio, want_ratio = gd[live] / g[live], want_d[live] / want[live]
        assert np.all(np.abs(ratio - want_ratio) <= 1e-14 * np.maximum(np.abs(want_ratio), 1.0))


def test_unbalanced_information_from_tables_matches_one_series_of_all_sets():
    from prosinfo.designs import SetPlan
    from prosinfo.models import score_information

    ud = UnbalancedDesign(6, (SetPlan(1, ((1, 2), (3, 4, 5, 6)), 1), SetPlan(1, ((1, 2), (3, 4, 5, 6)), 2),
                              SetPlan(2, ((1,), (2, 3, 4, 5), (6,)), 3), SetPlan(2, ((1,), (2, 3, 4, 5), (6,)), 1)))
    alphas = {1: make_symmetric_alpha(2, 0.8), 2: make_symmetric_alpha(3, 0.6)}
    model = make_model("logistic", mu=0.5, sigma=2.0)
    rows = ud.measured_rows(alphas)
    coefs = np.concatenate([densities.rank_coefficients(6, sp.partition, [row]) for sp, row in rows])

    def series(t, s):
        g, gd, _ = densities.bernstein_series(coefs, t, s)
        return 1.0, gd / g, g

    want = score_information(model, series)
    np.testing.assert_allclose(fi_unbalanced(model, ud, alphas).matrix.as_array(), want, rtol=1e-13, atol=0.0)
