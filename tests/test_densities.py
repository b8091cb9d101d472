import math
import warnings

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from prosinfo import (
    DensityError,
    DesignError,
    SetPlan,
    UnbalancedDesign,
    bernstein_series,
    block_weight,
    family_names,
    g_factor,
    identity_alpha,
    imperfect_subset_pdf,
    integrate_unit_interval,
    latent_conditional,
    make_balanced_design,
    make_model,
    make_symmetric_alpha,
    order_stat_pdf,
    rank_coefficients,
    subset_pdf,
    unbalanced_subset_pdf,
    unbalanced_weight,
    uniform_alpha,
)

T_GRID = np.linspace(0.02, 0.98, 25)


def _basis(S, u, t):
    """Oracle b_u(t) = C(S-1, u-1) t^(u-1) (1-t)^(S-u) by the binomial form."""
    return sps.comb(S - 1, u - 1, exact=False) * t ** (u - 1) * (1 - t) ** (S - u)


def _beta_weight(S, coef, t):
    """Oracle w(t) = sum_u c_u b_u(t), with b_u = Beta(u, S+1-u) density / S."""
    return sum(c * beta.pdf(t, u, S + 1 - u) / S for u, c in enumerate(coef, start=1) if c)


def _beta_weight_dt(S, coef, t):
    """Oracle w'(t) by degree reduction: b_u' = (S-1) [b^(S-1)_(u-1) - b^(S-1)_u]."""
    out = np.zeros_like(np.asarray(t, dtype=float))
    for u, c in enumerate(coef, start=1):
        if c and u > 1:
            out = out + c * beta.pdf(t, u - 1, S + 1 - u)
        if c and u < S:
            out = out - c * beta.pdf(t, u, S - u)
    return out


def test_bernstein_matches_binomial_form():
    # b_u(t) = C(S-1, u-1) t^(u-1) (1-t)^(S-u), one single-rank row at a time
    np.testing.assert_allclose(bernstein_series(np.eye(3)[1], 0.5)[0], 2 * 0.5 * 0.5)
    np.testing.assert_allclose(bernstein_series(np.eye(5)[0], 0.3)[0], 0.7**4)
    np.testing.assert_allclose(bernstein_series(np.eye(5)[4], 0.3)[0], 0.3**4)
    np.testing.assert_allclose(block_weight(3, (2,), 0.5), 3 * 2 * 0.5 * 0.5)


def test_bernstein_partition_of_unity():
    for S in (1, 2, 5, 12):
        total = bernstein_series(np.eye(S), T_GRID)[0].sum(axis=0)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_bernstein_rank_bounds():
    for ranks in ((0,), (4,), (1, 4)):
        with pytest.raises(DensityError, match=r"rank must lie in 1\.\.3"):
            rank_coefficients(3, (ranks,), [1.0])
    with pytest.raises(DensityError):
        block_weight(6, (0, 1), 0.5)
    with pytest.raises(DensityError):
        order_stat_pdf(make_model("normal"), 0, 3, 0.5)


def test_bernstein_many_matches_scalar_elementwise():
    # a stack of single-rank rows evaluates every rank at once
    rng = np.random.default_rng(2)
    us = rng.integers(1, 6, size=T_GRID.size)
    w = bernstein_series(np.eye(5)[us - 1], T_GRID)[0]
    got = w[np.arange(T_GRID.size), np.arange(T_GRID.size)]
    want = np.array([_basis(5, int(u), t) for u, t in zip(us, T_GRID)])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_bernstein_dt_matches_finite_difference():
    h = 1e-7
    for S, u in ((2, 1), (5, 3), (12, 7)):
        fd = (_basis(S, u, T_GRID + h) - _basis(S, u, T_GRID - h)) / (2 * h)
        np.testing.assert_allclose(bernstein_series(np.eye(S)[u - 1], T_GRID)[1], fd, atol=1e-5)


def test_block_weight_dt_matches_finite_difference():
    h = 1e-7
    for blocks, row in ((((2, 3, 4),), [1.0]), (((1, 2, 3), (4, 5, 6)), [0.8, 0.2])):
        coef = rank_coefficients(6, blocks, row)
        fd = (_beta_weight(6, coef, T_GRID + h) - _beta_weight(6, coef, T_GRID - h)) / (2 * h)
        np.testing.assert_allclose(bernstein_series(coef, T_GRID)[1], fd, atol=1e-4)


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


@pytest.mark.parametrize("r, x", [(4, -6.0), (4, -5.5), (4, -5.0), (1, 5.0), (1, 5.5), (1, 6.0)])
def test_latent_conditional_deep_in_a_tail(r, x):
    # the top block far below the median, and its mirror image, against binomial log-pmfs;
    # b_u(t) is the Binomial(S-1, t) pmf at u-1, equivalently Binomial(S-1, 1-t) at S-u
    from scipy.stats import binom, norm

    design = make_balanced_design(64, 4)
    u = np.asarray(design.subset(r))
    log_w = binom.logpmf(u - 1, 63, norm.cdf(x)) if x < 0 else binom.logpmf(64 - u, 63, norm.sf(x))
    want = np.exp(log_w - sps.logsumexp(log_w))
    got = latent_conditional(make_model("normal"), design, r, x)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "fam, r, x",
    [("normal", 4, -38.0), ("normal", 4, -39.0), ("normal", 1, 38.0), ("normal", 1, 39.0),
     ("logistic", 4, -800.0), ("logistic", 1, 800.0), ("extreme_value", 1, 7.0)],
)
def test_latent_conditional_where_the_cdf_underflows(fam, r, x):
    # F(x) or 1 - F(x) rounds to 0 here, but the point lies inside the support; the oracle
    # forms log b_u(F(x)) from scipy's log-cdf and log-sf, with log C(63, k) from the
    # Binomial(63, 1/2) log-pmf (the constant 63 log 2 cancels in the normalization)
    from scipy import stats

    dist = {"normal": stats.norm, "logistic": stats.logistic, "extreme_value": stats.gumbel_l}[fam]
    design = make_balanced_design(64, 4)
    k = np.asarray(design.subset(r)) - 1
    log_w = stats.binom.logpmf(k, 63, 0.5) + k * dist.logcdf(x) + (63 - k) * dist.logsf(x)
    want = np.exp(log_w - sps.logsumexp(log_w))
    got = latent_conditional(make_model(fam), design, r, x)
    assert np.all(np.isfinite(got)) and got.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-300)


def test_large_set_sizes_stay_finite():
    # log-space binomials keep S = 64 weights representable
    val = block_weight(64, (32,), 0.5) / 64
    assert 0.0 < val < 1.0
    np.testing.assert_allclose(val, beta.pdf(0.5, 32, 33) / 64, rtol=1e-13)
    w = block_weight(64, tuple(range(17, 33)), T_GRID)
    assert np.all(np.isfinite(w))
    design = make_balanced_design(64, 2)
    model = make_model("normal")
    assert np.isfinite(subset_pdf(model, design, 1, 0.5))


def test_alpha_weight_row_length_mismatch():
    with pytest.raises(DensityError):
        rank_coefficients(6, ((1, 2, 3), (4, 5, 6)), np.array([1.0]))


def test_scalar_points_give_floats():
    model = make_model("normal")
    design = make_balanced_design(6, 2)
    alpha = make_symmetric_alpha(2, 0.7)
    ud = UnbalancedDesign.from_design(design)
    for value in (
        order_stat_pdf(model, 2, 6, 0.3),
        subset_pdf(model, design, 1, 0.3),
        g_factor(model, design, alpha, 1, 0.3),
        imperfect_subset_pdf(model, design, alpha, 1, 0.3),
        unbalanced_weight(ud, 1, 1, alpha, 0.3),
        unbalanced_subset_pdf(model, ud, 1, 1, alpha, 0.3),
        block_weight(6, (1, 2, 3), 0.3),
    ):
        assert type(value) is float


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
    # the alpha-mixture weight and its derivatives against the Beta-density oracle
    t = np.concatenate([EDGE_T, T_GRID])
    coef = rank_coefficients(S, blocks, row)
    w, w1, w2 = bernstein_series(coef, t)
    ref = _beta_weight(S, coef, t)
    ref1 = _beta_weight_dt(S, coef, t)
    np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-300)
    scale = S * max(np.max(np.abs(ref)), np.max(np.abs(ref1)))
    np.testing.assert_allclose(w1, ref1, rtol=1e-10, atol=1e-12 * scale)
    # second derivative against a central difference of the oracle first derivative
    h = 1e-5
    fd2 = (_beta_weight_dt(S, coef, T_GRID + h) - _beta_weight_dt(S, coef, T_GRID - h)) / (2 * h)
    _, _, w2_grid = bernstein_series(coef, T_GRID)
    np.testing.assert_allclose(w2_grid, fd2, rtol=1e-5, atol=1e-6 * max(np.max(np.abs(fd2)), 1.0))
    if S <= 2:
        # w is constant (S = 1) or linear (S = 2): the vanishing derivatives are exact zeros
        assert np.all(w2 == 0.0)
        assert S == 2 or np.all(w1 == 0.0)
    if len(blocks) == 1:
        np.testing.assert_allclose(w, 1.0, rtol=1e-13)
        assert np.all(w1 == 0.0) and np.all(w2 == 0.0)


def test_bernstein_series_stacks_rows_and_keeps_shape():
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


@pytest.mark.parametrize("S,blocks,row", list(_series_cases()))
def test_bernstein_series_endpoints_are_the_end_coefficients(S, blocks, row):
    # w, w' and w'' at t = 0 are c_1, (S-1)(c_2 - c_1) and (S-1)(S-2)(c_3 - 2c_2 + c_1); mirrored at t = 1
    coef = rank_coefficients(S, blocks, row)
    tol = 1e-15 * S * S * np.max(np.abs(coef))
    for t, c in ((0.0, coef), (1.0, coef[::-1])):
        w, w1, w2 = bernstein_series(coef, t)
        sign = 1.0 if t == 0.0 else -1.0
        assert w == c[0]
        assert w1 == (sign * (S - 1) * (c[1] - c[0]) if S > 1 else 0.0)
        if S > 2:
            np.testing.assert_allclose(w2, (S - 1) * (S - 2) * (c[2] - 2 * c[1] + c[0]), rtol=0, atol=tol)
        else:
            assert w2 == 0.0


@pytest.mark.parametrize("S,blocks,row", [case for case in _series_cases() if case[0] in (1, 2, 6, 12, 64)])
def test_bernstein_series_at_the_ends_of_the_double_range(S, blocks, row):
    # the smallest subnormal, a deep tail and the largest double below 1: finite, silent, and on the oracle
    t = np.array([5e-324, 1e-300, 1 - 2.0**-53])
    coef = rank_coefficients(S, blocks, row)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, w1, w2 = bernstein_series(coef, t)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))
    ref, ref1 = _beta_weight(S, coef, t), _beta_weight_dt(S, coef, t)
    np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-300)
    scale = S * max(np.max(np.abs(ref)), np.max(np.abs(ref1)))
    np.testing.assert_allclose(w1, ref1, rtol=1e-10, atol=1e-12 * scale)


def test_bernstein_series_keeps_the_shape_of_many_stacked_points():
    # 4096 points at S = 64 span several blocks of the power table
    S = 64
    design = make_balanced_design(S, 4)
    coefs = np.stack(
        [[rank_coefficients(S, design.subsets, make_symmetric_alpha(4, p).row(r)) for r in (1, 2, 3)] for p in (1.0, 0.6)]
    )
    t = np.random.default_rng(5).beta(2.0, 3.0, size=(64, 64))
    results = bernstein_series(coefs, t)
    for got in results:
        assert got.shape == coefs.shape[:-1] + t.shape == (2, 3, 64, 64)
    for i in range(2):
        for r in range(3):
            for got, want in zip(results, bernstein_series(coefs[i, r], t.ravel())):
                np.testing.assert_allclose(got[i, r].ravel(), want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
    np.testing.assert_allclose(results[0][0, 0], _beta_weight(S, coefs[0, 0], t), rtol=1e-12, atol=1e-300)


@st.composite
def _density_cases(draw):
    S = draw(st.integers(1, 64))
    n = draw(st.sampled_from([d for d in range(1, S + 1) if S % d == 0]))
    return draw(st.sampled_from(family_names())), S, n, draw(st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(_density_cases())
def test_densities_match_beta_oracle(case):
    fam, S, n, p = case
    model = make_model(fam)
    design = make_balanced_design(S, n)
    alpha = make_symmetric_alpha(n, p) if n > 1 else identity_alpha(1)
    x = np.asarray(model.quantile(np.linspace(0.05, 0.95, 7)))
    f, t = model.pdf(x), model.cdf(x)
    for u in {1, (S + 1) // 2, S}:
        np.testing.assert_allclose(order_stat_pdf(model, u, S, x), f * beta.pdf(t, u, S + 1 - u), rtol=1e-10)
    mix = sum(imperfect_subset_pdf(model, design, alpha, r, x) for r in range(1, n + 1)) / n
    np.testing.assert_allclose(mix, f, rtol=1e-10)
    ranks = np.asarray(design.subset(n))
    dens = beta.pdf(t[3], ranks, S + 1 - ranks)
    np.testing.assert_allclose(latent_conditional(model, design, n, float(x[3])), dens / dens.sum(), rtol=1e-10)
