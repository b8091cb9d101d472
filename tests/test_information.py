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
