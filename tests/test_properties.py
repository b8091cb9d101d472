"""Invariants the paper implies, checked by quadrature on generated cases."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prosinfo import (
    fi_pros_complete,
    fi_pros_marginal,
    fisher_srs,
    kl_likelihood_chain,
    make_balanced_design,
    make_model,
    make_symmetric_alpha,
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
