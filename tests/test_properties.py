"""Invariants the paper implies, checked by quadrature on generated cases."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prosinfo import (
    SetPlan,
    UnbalancedDesign,
    densities,
    fi_pros_complete,
    fi_pros_marginal,
    fi_unbalanced,
    fisher_srs,
    kl_likelihood_chain,
    make_balanced_design,
    make_model,
    make_symmetric_alpha,
    numerics,
    relative_efficiencies,
    renyi,
    shannon,
)

# the location-scale families with regular Fisher information; gamma keeps its shape fixed
FAMILIES = ("normal", "logistic", "exponential", "extreme_value", "gamma")
SET_SIZES = (4, 6, 8, 12)
PROBABILITIES = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _re1(model, set_size, n, p):
    fi = fi_pros_marginal(model, make_balanced_design(set_size, n), make_symmetric_alpha(n, p))
    return relative_efficiencies(fi, fisher_srs(model, n))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), st.sampled_from(SET_SIZES), PROBABILITIES)
def test_two_subsets_efficiency_is_symmetric_in_misplacement(fam, set_size, p):
    # alpha(1 - p) is alpha(p) with its two subsets swapped
    model = make_model(fam)
    np.testing.assert_allclose(_re1(model, set_size, 2, p), _re1(model, set_size, 2, 1.0 - p), rtol=1e-10)


@st.composite
def _set_size_and_subsets(draw):
    set_size = draw(st.sampled_from(SET_SIZES))
    return set_size, draw(st.sampled_from([n for n in range(2, set_size + 1) if set_size % n == 0]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), _set_size_and_subsets())
def test_random_subsetting_is_worth_nothing(fam, case):
    # at p = 1/n every unit is equally likely in every subset, so g_r = 1
    set_size, n = case
    np.testing.assert_allclose(_re1(make_model(fam), set_size, n, 1.0 / n), 1.0, rtol=1e-10)


def _scaled(fam, sigma, loc):
    model = make_model(fam)
    return make_model(fam, sigma=sigma, **({"mu": loc} if "mu" in model.param_names else {}))


def _at_extreme_scales(test):
    # scales far outside the drawn range, where quadrature nodes placed for unit width would see nothing,
    # and locations so far above the scale that x = loc + scale z cannot resolve z
    for fam in FAMILIES:
        for log10_sigma in (-100.0, 100.0):
            test = example(fam, (6, 2), 0.7, log10_sigma, 0.5, 0.5)(test)
    for fam in ("normal", "logistic", "extreme_value"):
        for loc, log10_sigma in ((1.0, -20.0), (1e6, -12.0)):
            test = example(fam, (6, 2), 0.7, log10_sigma, loc, 0.5)(test)
    for fam in ("exponential", "gamma"):
        for log10_sigma in (-20.0, 20.0):
            test = example(fam, (6, 2), 0.7, log10_sigma, 0.0, 0.5)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    _set_size_and_subsets(),
    PROBABILITIES,
    st.floats(-2.0, 2.0),
    st.floats(-1e6, 1e6),
    st.sampled_from((0.3, 0.5, 0.8)),
)
@_at_extreme_scales
def test_information_and_entropy_are_scale_equivariant(fam, case, p, log10_sigma, loc, order):
    # the location is drawn apart from the scale, so it may dwarf it
    set_size, n = case
    sigma = 10.0**log10_sigma
    design, alpha = make_balanced_design(set_size, n), make_symmetric_alpha(n, p)
    unit, model = make_model(fam), _scaled(fam, sigma, loc)
    for route in (
        lambda m: fi_pros_marginal(m, design, alpha),
        lambda m: fi_pros_complete(m, n, set_size),
        lambda m: fi_pros_marginal(m, design, alpha, method="mc", reps=1000, seed=7),
    ):
        want = route(unit).matrix.as_array()
        got = route(model).matrix.as_array() * sigma**2
        # the (mu, sigma) entry of a symmetric parent is 0, so the tolerance is relative to the largest entry
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    log_sigma = math.log(sigma)
    for report in (lambda m: shannon(m, "pros", n, set_size), lambda m: renyi(m, order, "pros", n, set_size)):
        want_h, got_h = report(unit), report(model)
        rows = [(got_h.total, want_h.total + n * log_sigma)]
        rows += [(g, w + log_sigma) for g, w in zip(got_h.per_subset, want_h.per_subset, strict=True)]
        for g, w in rows:
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * (abs(w) + n * abs(log_sigma)))
    np.testing.assert_allclose(kl_likelihood_chain(model, design), kl_likelihood_chain(unit, design), rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(("normal", "logistic", "exponential", "gamma")),
    st.sampled_from(((6, 2), (12, 3))),
    st.floats(0.5, 1.0),
)
def test_marginal_information_by_monte_carlo_agrees_with_quadrature(fam, case, p):
    set_size, n = case
    model = make_model(fam)
    design, alpha = make_balanced_design(set_size, n), make_symmetric_alpha(n, p)
    want = np.diag(fi_pros_marginal(model, design, alpha).matrix.as_array())
    mc = fi_pros_marginal(model, design, alpha, method="mc", reps=20_000, workers=2)
    got, se = np.diag(mc.matrix.as_array()), np.diag(np.asarray(mc.std_errors))
    # where every replicate is the same constant (normal location at (6, 2), p = 1/2) se is 0, and the
    # two routes may then differ only by round-off, hence the floor
    assert np.all(np.abs(got - want) <= 5.0 * se + 1e-12 * np.abs(want)), (got, want, se)


# families with their shapes, each with its default location 0 and scale 1
INFO_FAMILIES = (
    ("normal", {}), ("logistic", {}), ("extreme_value", {}), ("exponential", {}), ("gamma", {"shape": 0.5}),
    ("gamma", {"shape": 2.0}), ("exp_mixture", {"pi": 0.5, "h": 0.5}), ("exp_mixture", {"pi": 0.999, "h": 0.01}),
)
# an unbalanced partition of each set size into n blocks
PARTITIONS = {6: ((1, 2), (3, 4, 5, 6)), 24: (tuple(range(1, 5)), tuple(range(5, 15)), tuple(range(15, 25))),
              64: (tuple(range(1, 9)), tuple(range(9, 33)), tuple(range(33, 41)), tuple(range(41, 65)))}


def _hessian_form(model, coefs):
    """-int_0^1 sum_b gamma_b H_b dt, H_b the Hessian of log f + log gamma_b at F^{-1}(t), gamma_b = sum_u coefs[b] b_u.

    A term contributes nothing where its weight lies below the square root of the smallest normal double, near
    an end of (0, 1): there (log gamma_b)'^2 may overflow, while gamma_b H_b is negligible.
    """

    def entries(t, s):
        g, g1, g2 = densities.bernstein_series(coefs, t, s)
        a = g1 / g
        h = model.neg_hessian(model.quantile(t, s), a, g2 / g - a * a)
        return np.where(g[..., None] > np.sqrt(np.finfo(float).tiny), g[..., None] * h, 0.0).sum(axis=0).T

    return numerics.from_triu(model.p, numerics.integrate(entries))


@pytest.mark.parametrize("fam, shape", INFO_FAMILIES)
@pytest.mark.parametrize("set_size, n", ((6, 2), (24, 3), (64, 4)))
@pytest.mark.parametrize("route", ("perfect", "symmetric", "partition", "complete"))
def test_information_equality_holds_on_every_route(fam, shape, set_size, n, route):
    # the score form int s s^T gamma dt of each quadrature route equals the Hessian form -int H gamma dt that
    # the Monte Carlo route samples, H from Model.neg_hessian
    model = make_model(fam, **shape)
    if route == "complete":
        want = fi_pros_complete(model, n, set_size).matrix.as_array()
        coefs = n * np.eye(set_size)  # each rank u with weight (S/m) b_u, m = S/n
    else:
        partition = PARTITIONS[set_size] if route == "partition" else make_balanced_design(set_size, n).subsets
        ud = UnbalancedDesign(set_size, tuple(SetPlan(1, partition, r) for r in range(1, n + 1)))
        alphas = {1: None if route == "perfect" else make_symmetric_alpha(n, 0.8)}
        want = fi_unbalanced(model, ud, alphas).matrix.as_array()
        rows = ud.measured_rows(alphas)
        coefs = np.array([densities.rank_coefficients(set_size, sp.partition, row) for sp, row in rows])
    got = _hessian_form(model, coefs)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * np.abs(want).max())
