import math

import numpy as np
import pytest

from prosinfo import (
    DensityError,
    DesignError,
    SetPlan,
    UnbalancedDesign,
    alpha_weight,
    alpha_weight_dt,
    bernstein,
    bernstein_dt,
    bernstein_many,
    block_weight,
    block_weight_dt,
    g_factor,
    identity_alpha,
    imperfect_subset_pdf,
    integrate_unit_interval,
    latent_conditional,
    make_balanced_design,
    make_model,
    make_symmetric_alpha,
    order_stat_pdf,
    subset_pdf,
    unbalanced_subset_pdf,
    unbalanced_weight,
    uniform_alpha,
)

T_GRID = np.linspace(0.02, 0.98, 25)


def test_bernstein_matches_binomial_form():
    # b_u(t) = C(S-1, u-1) t^(u-1) (1-t)^(S-u)
    np.testing.assert_allclose(bernstein(3, 2, 0.5), 2 * 0.5 * 0.5)
    np.testing.assert_allclose(bernstein(5, 1, 0.3), 0.7**4)
    np.testing.assert_allclose(bernstein(5, 5, 0.3), 0.3**4)


def test_bernstein_partition_of_unity():
    for S in (1, 2, 5, 12):
        total = sum(bernstein(S, u, T_GRID) for u in range(1, S + 1))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_bernstein_rank_bounds():
    with pytest.raises(DensityError):
        bernstein(3, 0, 0.5)
    with pytest.raises(DensityError):
        bernstein(3, 4, 0.5)


def test_bernstein_many_matches_scalar_elementwise():
    rng = np.random.default_rng(2)
    us = rng.integers(1, 6, size=T_GRID.size)
    got = bernstein_many(5, us, T_GRID)
    want = np.array([bernstein(5, int(u), t) for u, t in zip(us, T_GRID)])
    np.testing.assert_allclose(got, want, atol=1e-14)
    with pytest.raises(DensityError):
        bernstein_many(5, np.array([0, 2]), np.array([0.5, 0.5]))


def test_bernstein_dt_matches_finite_difference():
    h = 1e-7
    for S, u in ((2, 1), (5, 3), (12, 7)):
        fd = (bernstein(S, u, T_GRID + h) - bernstein(S, u, T_GRID - h)) / (2 * h)
        np.testing.assert_allclose(bernstein_dt(S, u, T_GRID), fd, atol=1e-5)


def test_block_weight_dt_matches_finite_difference():
    h = 1e-7
    ranks = (2, 3, 4)
    fd = (block_weight(6, ranks, T_GRID + h) - block_weight(6, ranks, T_GRID - h)) / (2 * h)
    np.testing.assert_allclose(block_weight_dt(6, ranks, T_GRID), fd, atol=1e-4)
    fd1 = (alpha_weight(6, ((1, 2, 3), (4, 5, 6)), np.array([0.8, 0.2]), T_GRID + h)
           - alpha_weight(6, ((1, 2, 3), (4, 5, 6)), np.array([0.8, 0.2]), T_GRID - h)) / (2 * h)
    np.testing.assert_allclose(
        alpha_weight_dt(6, ((1, 2, 3), (4, 5, 6)), np.array([0.8, 0.2]), T_GRID),
        fd1,
        atol=1e-4,
    )


def test_block_weight_normalizes():
    # each block weight integrates to 1 on the quantile scale
    for S, ranks in ((6, (1, 2, 3)), (6, (4, 5, 6)), (12, (5, 6, 7, 8)), (4, (2,))):
        got = integrate_unit_interval(lambda t: block_weight(S, ranks, t))
        np.testing.assert_allclose(got, 1.0, atol=1e-8)


def test_order_stat_pdf_values():
    uniform = make_model("uniform")
    np.testing.assert_allclose(order_stat_pdf(uniform, 2, 3, 0.5), 1.5)
    xs = np.linspace(0.05, 0.95, 9)
    np.testing.assert_allclose(order_stat_pdf(uniform, 1, 1, xs), uniform.pdf(xs))
    normal = make_model("normal")
    np.testing.assert_allclose(order_stat_pdf(normal, 1, 2, 0.0), 0.398942, atol=1e-6)
    with pytest.raises(DensityError):
        order_stat_pdf(uniform, 4, 3, 0.5)


def test_subset_pdf_reduces_to_parent_for_srs():
    from prosinfo import srs_design

    model = make_model("logistic")
    xs = np.linspace(-4.0, 4.0, 15)
    np.testing.assert_allclose(subset_pdf(model, srs_design(), 1, xs), model.pdf(xs))


def test_subset_pdf_uniform_halves():
    design = make_balanced_design(2, 2)
    model = make_model("uniform")
    np.testing.assert_allclose(subset_pdf(model, design, 1, 0.25), 1.5)
    np.testing.assert_allclose(subset_pdf(model, design, 2, 0.25), 0.5)


@pytest.mark.parametrize("fam", ("uniform", "normal", "exponential"))
@pytest.mark.parametrize("S,n", ((4, 2), (6, 2), (6, 3), (12, 4)))
def test_subset_pdf_mixture_recovers_parent(fam, S, n):
    model = make_model(fam)
    design = make_balanced_design(S, n)
    xs = np.array([model.quantile(u) for u in np.linspace(0.02, 0.98, 50)])
    mix = sum(subset_pdf(model, design, r, xs) for r in range(1, n + 1)) / n
    np.testing.assert_allclose(mix, model.pdf(xs), atol=1e-10)


@pytest.mark.parametrize("S,n", ((2, 2), (6, 2), (6, 3), (12, 6)))
def test_subset_pdf_integrates_to_one(S, n):
    model = make_model("normal")
    design = make_balanced_design(S, n)
    for r in range(1, n + 1):
        got = integrate_unit_interval(
            lambda t: block_weight(S, design.subset(r), t)
        )
        np.testing.assert_allclose(got, 1.0, atol=1e-8, err_msg=f"subset {r}")


def test_g_factor_uniform_alpha_is_flat():
    design = make_balanced_design(6, 3)
    model = make_model("normal")
    xs = np.linspace(-3.0, 3.0, 21)
    for r in (1, 2, 3):
        np.testing.assert_allclose(
            g_factor(model, design, uniform_alpha(3), r, xs), np.ones_like(xs), atol=1e-12
        )


def test_g_factor_identity_at_median():
    design = make_balanced_design(2, 2)
    model = make_model("uniform")
    np.testing.assert_allclose(g_factor(model, design, identity_alpha(2), 1, 0.5), 1.0)


@pytest.mark.parametrize("p", (0.0, 0.3, 0.7, 1.0))
def test_g_factors_sum_to_subset_count(p):
    design = make_balanced_design(6, 3)
    alpha = make_symmetric_alpha(3, p)
    model = make_model("logistic")
    xs = np.linspace(-5.0, 5.0, 21)
    total = sum(g_factor(model, design, alpha, r, xs) for r in (1, 2, 3))
    np.testing.assert_allclose(total, np.full_like(xs, 3.0), atol=1e-10)


def test_imperfect_mixture_recovers_parent():
    design = make_balanced_design(6, 2)
    alpha = make_symmetric_alpha(2, 0.65)
    model = make_model("exponential")
    xs = np.array([model.quantile(u) for u in np.linspace(0.02, 0.98, 50)])
    total = sum(imperfect_subset_pdf(model, design, alpha, r, xs) for r in (1, 2))
    np.testing.assert_allclose(total, 2.0 * model.pdf(xs), atol=1e-10)


def test_g_factor_dimension_mismatch():
    design = make_balanced_design(6, 2)
    with pytest.raises(DesignError):
        g_factor(make_model("normal"), design, identity_alpha(3), 1, 0.0)


def _table9_style_design():
    first = ((1, 2, 3), (4, 5), (6,))
    second = ((1, 2), (3, 4, 5, 6))
    return UnbalancedDesign(
        set_size=6,
        sets=(
            SetPlan(1, first, 1),
            SetPlan(1, first, 2),
            SetPlan(1, first, 3),
            SetPlan(2, second, 1),
            SetPlan(2, second, 2),
        ),
    )


def test_unbalanced_pdf_uniform_values():
    ud = _table9_style_design()
    uniform = make_model("uniform")
    # measured block {3,4,5,6}: (1/4) sum of the four upper order statistics
    np.testing.assert_allclose(
        unbalanced_subset_pdf(uniform, ud, 2, 2, identity_alpha(2), 0.5), 1.21875
    )
    # measured block {1,2}: (1/2)(f_(1:6) + f_(2:6)) at the median
    np.testing.assert_allclose(
        unbalanced_subset_pdf(uniform, ud, 1, 2, identity_alpha(2), 0.5), 0.5625
    )


def test_unbalanced_weights_mix_to_parent():
    ud = _table9_style_design()
    model = make_model("normal")
    for i, blocks in ((1, ((1, 2, 3), (4, 5), (6,))), (2, ((1, 2), (3, 4, 5, 6)))):
        alpha = identity_alpha(len(blocks))
        for t in T_GRID:
            total = sum(
                (len(blocks[r - 1]) / 6.0) * unbalanced_weight(ud, i, r, alpha, t)
                for r in range(1, len(blocks) + 1)
            )
            np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_unbalanced_matches_balanced_machinery():
    design = make_balanced_design(6, 2)
    ud = UnbalancedDesign.from_design(design)
    model = make_model("normal")
    alpha = make_symmetric_alpha(2, 0.7)
    xs = np.array([model.quantile(u) for u in np.linspace(0.03, 0.97, 20)])
    for r in (1, 2):
        np.testing.assert_allclose(
            unbalanced_subset_pdf(model, ud, r, 1, alpha, xs),
            imperfect_subset_pdf(model, design, alpha, r, xs),
            atol=1e-10,
        )


def test_unbalanced_index_validation():
    ud = _table9_style_design()
    uniform = make_model("uniform")
    with pytest.raises(DensityError):
        unbalanced_weight(ud, 2, 3, identity_alpha(2), 0.5)
    with pytest.raises(DesignError):
        unbalanced_subset_pdf(uniform, ud, 1, 2, identity_alpha(3), 0.5)


def test_latent_conditional_values():
    from prosinfo import Design, srs_design

    model = make_model("uniform")
    np.testing.assert_allclose(latent_conditional(model, srs_design(), 1, 0.3), [1.0])
    both = Design(2, ((1, 2),))
    np.testing.assert_allclose(latent_conditional(model, both, 1, 0.5), [0.5, 0.5])
    np.testing.assert_allclose(latent_conditional(model, both, 1, 0.25), [0.75, 0.25])
    # above the support every order statistic of the bottom block vanishes
    with pytest.raises(DensityError):
        latent_conditional(model, make_balanced_design(2, 2), 1, 2.0)


def test_latent_conditional_sums_to_one():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    for x in (-1.3, 0.0, 0.4, 2.1):
        probs = latent_conditional(model, design, 2, x)
        assert probs.shape == (3,)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)


def test_large_set_sizes_stay_finite():
    # log-space binomials keep S = 64 weights representable
    val = bernstein(64, 32, 0.5)
    assert 0.0 < val < 1.0
    w = block_weight(64, tuple(range(17, 33)), T_GRID)
    assert np.all(np.isfinite(w))
    design = make_balanced_design(64, 2)
    model = make_model("normal")
    assert np.isfinite(subset_pdf(model, design, 1, 0.5))


def test_alpha_weight_row_length_mismatch():
    with pytest.raises(DensityError):
        alpha_weight(6, ((1, 2, 3), (4, 5, 6)), np.array([1.0]), 0.5)


# -- the Bernstein-series evaluator ---------------------------------------------

EDGE_T = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.25, 0.5, 0.75, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])


def _series_cases():
    """(S, partition, alpha row) for perfect, symmetric and one-block rows."""
    for S in (1, 2, 3, 6, 12, 64):
        n = min(S, 3)
        blocks = tuple(tuple(int(u) for u in b) for b in np.array_split(np.arange(1, S + 1), n))
        yield S, ((tuple(range(1, S + 1)),)), np.array([1.0])
        for r in range(1, n + 1):
            yield S, blocks, identity_alpha(n).row(r)
            if n > 1:
                yield S, blocks, make_symmetric_alpha(n, 0.7).row(r)


@pytest.mark.parametrize("S,blocks,row", list(_series_cases()))
def test_bernstein_series_matches_alpha_weight(S, blocks, row):
    from prosinfo.densities import bernstein_series, rank_coefficients

    t = np.concatenate([EDGE_T, T_GRID])
    w, w1, w2 = bernstein_series(rank_coefficients(S, blocks, row), t)
    ref = np.asarray(alpha_weight(S, blocks, row, t))
    ref1 = np.asarray(alpha_weight_dt(S, blocks, row, t))
    np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-300)
    scale = S * max(np.max(np.abs(ref)), np.max(np.abs(ref1)))
    np.testing.assert_allclose(w1, ref1, rtol=1e-10, atol=1e-12 * scale)
    # second derivative against a central difference of the independent first derivative
    h = 1e-5
    up, down = (np.asarray(alpha_weight_dt(S, blocks, row, T_GRID + d)) for d in (h, -h))
    fd2 = (up - down) / (2 * h)
    _, _, w2_grid = bernstein_series(rank_coefficients(S, blocks, row), T_GRID)
    np.testing.assert_allclose(w2_grid, fd2, rtol=1e-5, atol=1e-6 * max(np.max(np.abs(fd2)), 1.0))
    if S <= 2:
        # w is constant (S = 1) or linear (S = 2): the vanishing derivatives are exact zeros
        assert np.all(w2 == 0.0)
        assert S == 2 or np.all(w1 == 0.0)
    if len(blocks) == 1:
        np.testing.assert_allclose(w, 1.0, rtol=1e-13)
        assert np.all(w1 == 0.0) and np.all(w2 == 0.0)


def test_bernstein_series_stacks_rows_and_keeps_shape():
    from prosinfo.densities import bernstein_series, rank_coefficients

    design = make_balanced_design(12, 3)
    alpha = make_symmetric_alpha(3, 0.8)
    coefs = np.stack([rank_coefficients(12, design.subsets, alpha.row(r)) for r in (1, 2, 3)])
    t = T_GRID.reshape(5, 5)
    w, w1, w2 = bernstein_series(coefs, t)
    assert w.shape == w1.shape == w2.shape == (3, 5, 5)
    for r in (1, 2, 3):
        single = bernstein_series(coefs[r - 1], t)
        for got, want in zip((w[r - 1], w1[r - 1], w2[r - 1]), single):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    with pytest.raises(DensityError):
        rank_coefficients(12, design.subsets, np.array([0.5, 0.5]))
