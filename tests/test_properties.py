"""Invariants the paper implies, checked by quadrature on generated cases."""

import contextlib
import io
import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prosinfo import (
    InformationError,
    MisplacementMatrix,
    SetPlan,
    UnbalancedDesign,
    densities,
    fi_pros_complete,
    fi_pros_marginal,
    family_names,
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
from prosinfo import cli
from prosinfo.cli import main

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


# a member of each family with regular Fisher information, at location 0 and scale 1, shapes drawn
_MEMBERS = st.one_of(
    st.tuples(st.sampled_from(("normal", "logistic", "exponential", "extreme_value")), st.just({})),
    st.builds(lambda k: ("gamma", {"shape": k}), st.floats(0.5, 50.0)),
    st.builds(lambda pi, h: ("exp_mixture", {"pi": pi, "h": h}), st.floats(0.05, 0.95), st.floats(0.1, 10.0)),
)


def _rounding(*values):
    return 1e-12 * max(abs(v) for v in values)


@settings(max_examples=60, deadline=None)
@given(_MEMBERS | st.just(("uniform", {})), _set_size_and_subsets())
def test_pros_entropy_lies_between_its_bounds(member, case):
    # (1/m) H(RSS of all S ranks) <= H(PROS(n, S)) <= n H(f); at n = S both sides of the lower bound are the
    # RSS's own entropy
    (fam, params), (set_size, n) = member, case
    report = shannon(make_model(fam, **params), "pros", n, set_size)
    slack = _rounding(report.lower_bound, report.total, report.upper_bound)
    assert report.lower_bound - slack <= report.total <= report.upper_bound + slack, report


@settings(max_examples=60, deadline=None)
@given(_MEMBERS, _set_size_and_subsets(), st.floats(0.1, 2.0))
def test_kl_chain_is_ordered(member, case, shift):
    # K_srs <= K_pros <= K_rss*/m; at n = S the PROS design is the RSS and the last two agree
    (fam, params), (set_size, n) = member, case
    k_srs, k_pros, k_rss = kl_likelihood_chain(make_model(fam, **params), make_balanced_design(set_size, n), shift)
    slack = _rounding(k_srs, k_pros, k_rss)
    assert k_srs - slack <= k_pros <= k_rss + slack, (k_srs, k_pros, k_rss)


def _largest_term(m):
    """The largest |product| in the expansion of det m: the computed determinant rounds relative to it, not to
    itself, where the terms cancel."""
    return max(abs(math.prod(m[i][j] for i, j in enumerate(cols))) for cols in itertools.permutations(range(len(m))))


@st.composite
def _subsets_and_two_multiples(draw):
    n = draw(st.integers(1, 4))
    return n, tuple(sorted(draw(st.lists(st.integers(1, 24 // n), min_size=2, max_size=2, unique=True))))


@settings(max_examples=60, deadline=None)
@given(_MEMBERS, _subsets_and_two_multiples())
# det 7.4e-10 from terms of 1.2e-5, whose rounding moves it by 6.8e-12 of itself between S = 1 and 3
@example(("exp_mixture", {"pi": 0.4375, "h": 0.9921875}), (1, (1, 3)))
def test_determinant_of_the_information_does_not_fall_as_the_set_grows(member, case):
    # under perfect ranking, for fixed n.  The matrix itself is not monotone in the Loewner order: the
    # sigma-sigma entry of normal PROS(2, S) falls from 4.616 at S = 4 to 4.405 at S = 24.  At n = 1 the
    # design is an SRS for every S, so the matrices agree to rounding, relative to the largest entry where an
    # entry is 0 by symmetry
    (fam, params), (n, (small, large)) = member, case
    model = make_model(fam, **params)
    fi_small, fi_large = (fi_pros_marginal(model, make_balanced_design(k * n, n)) for k in (small, large))
    a_small, a_large = fi_small.matrix.as_array(), fi_large.matrix.as_array()
    if n == 1:
        np.testing.assert_allclose(a_large, a_small, rtol=1e-14, atol=1e-14 * np.abs(a_small).max())
    slack = 1e-12 * _largest_term(a_small.tolist())
    assert fi_large.det() >= fi_small.det() - slack, (small * n, large * n, fi_small.det(), fi_large.det())


@st.composite
def _symmetric_matrix(draw, p):
    """A symmetric p x p matrix at a random power-of-two scale: any one, or a rank-one one perturbed by 1e-16.

    No entry lies in (0, 1e-9), so no pair's entries lie a double range apart (an OverflowError)."""
    entries = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-9)
    m = np.array(draw(st.lists(entries, min_size=p * p, max_size=p * p))).reshape(p, p)
    m = m + m.T
    if draw(st.booleans()):
        v = np.array(draw(st.lists(entries, min_size=p, max_size=p)))
        m = np.outer(v, v) + 1e-16 * m
    return m * 2.0 ** draw(st.integers(-60, 60))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda p: st.tuples(_symmetric_matrix(p), _symmetric_matrix(p))))
@example((np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])))  # a positive determinant over a negative one
def test_relative_efficiency_is_never_negative(pair):
    # a determinant below 0 is rounding noise on either side, so the ratio is refused rather than signed
    try:
        value = relative_efficiencies(*pair)
    except (InformationError, numerics.NumericsError):
        return
    assert value >= 0.0, pair


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


@st.composite
def _partition_alpha_pair(draw):
    """A partition of S in {6, 12} into two to four blocks, and a symmetric doubly stochastic alpha for it."""
    set_size = draw(st.sampled_from((6, 12)))
    cuts = sorted(draw(st.sets(st.integers(1, set_size - 1), min_size=1, max_size=3)))
    edges = [0, *cuts, set_size]
    partition = tuple(tuple(range(lo + 1, hi + 1)) for lo, hi in zip(edges, edges[1:]))
    n = len(partition)
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0.1))
    mixed = sum(w * np.eye(n)[draw(st.permutations(range(n)))] for w in weights) / sum(weights)
    return set_size, partition, (mixed + mixed.T) / 2.0


def _reflected(set_size, partition):
    """The partition of the reflected ranks u -> S + 1 - u, its blocks in increasing order."""
    return tuple(tuple(set_size + 1 - u for u in reversed(block)) for block in reversed(partition))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("normal", "logistic")), _partition_alpha_pair())
def test_reflecting_the_partition_and_alpha_mirrors_the_information(fam, case):
    # x -> -x maps rank u to S + 1 - u and block r to n + 1 - r, so a symmetric parent keeps the mu-mu and
    # sigma-sigma entries and flips the sign of mu-sigma
    set_size, partition, alpha = case
    model = make_model(fam)
    infos = []
    for part, a in ((partition, alpha), (_reflected(set_size, partition), alpha[::-1, ::-1])):
        ud = UnbalancedDesign(set_size, tuple(SetPlan(1, part, r) for r in range(1, len(part) + 1)))
        infos.append(fi_unbalanced(model, ud, {1: MisplacementMatrix(a)}).matrix.as_array())
    want, got = infos
    np.testing.assert_allclose(np.diag(got), np.diag(want), rtol=1e-10)
    np.testing.assert_allclose(got[0, 1], -want[0, 1], rtol=0.0, atol=1e-10 * np.abs(want).max())


# in-range values of each parameter; a request may swap one for a value outside its range
_PARAM_VALUES = {"mu": ("0", "1", "-1e6"), "loc": ("0", "5"), "sigma": ("1", "1e-3", "1e3"), "scale": ("1", "2"),
                 "shape": ("0.5", "2", "30"), "pi": ("0.1", "0.5", "0.999"), "h": ("1e-3", "0.01", "0.5", "3")}
_BAD_NUMBERS = st.sampled_from(("0", "-1", "-0", "1e308", "1e-300", "nan", "inf", "x"))


def _value(draw, good, bad=_BAD_NUMBERS):
    """A drawn in-range value, or now and then one outside its range."""
    return draw(bad if draw(st.integers(0, 7)) == 0 else good)


def _flag_value(draw, argv, flag, good):
    return [*argv, flag, _value(draw, good)]


@st.composite
def _cli_request(draw):
    """argv of a fisher, entropy or sample request, mostly well formed, with bad or unread values mixed in."""
    sub = draw(st.sampled_from(("fisher", "entropy", "sample")))
    fam = draw(st.sampled_from(family_names()))
    argv = [sub, "--family", fam]
    names = draw(st.lists(st.sampled_from(make_model(fam).param_names), unique=True))
    if names:
        values = [_value(draw, st.sampled_from(_PARAM_VALUES[name])) for name in names]
        argv += ["--params", ",".join(f"{name}={value}" for name, value in zip(names, values))]
    set_size, n = draw(st.sampled_from(((2, 2), (4, 2), (6, 2), (6, 3), (12, 3), (12, 4), (6, 4), (0, 1))))
    kind = draw(st.sampled_from(("pros", "rss", "srs"))) if sub == "entropy" else "pros"
    argv += ["--subsets", str(n)] + ([] if kind == "srs" else ["--set-size", str(set_size)])
    if sub == "entropy":
        measure = draw(st.sampled_from(("shannon", "renyi", "kl")))
        argv += ["--measure", measure] + ([] if measure == "kl" else ["--kind", kind])
        if measure == "renyi":
            argv = _flag_value(draw, argv, "--order", st.sampled_from(("0.5", "0.1", "0.9")))
    else:
        alphas = st.sampled_from(("perfect", "symmetric:0.8", "symmetric:0.5", "dellclutter:0.75", "dellclutter:1"))
        alpha = _value(draw, alphas, st.sampled_from(("symmetric:1.5", "dellclutter:-1", "no-such-file.csv")))
        mode = draw(st.sampled_from(("marginal", "marginal", "complete"))) if sub == "fisher" else "marginal"
        argv += ["--alpha", alpha] if mode == "marginal" else ["--mode", "complete"]
        mc = sub == "fisher" and draw(st.booleans())
        if mc:
            argv += ["--method", "mc", "--workers", draw(st.sampled_from(("1", "2")))]
            argv = _flag_value(draw, argv, "--reps", st.sampled_from(("2", "3", "5", "64")))
        if sub == "sample" or mc or alpha.startswith("dellclutter:"):
            argv = _flag_value(draw, argv, "--seed", st.sampled_from(("0", "3")))
        argv = _flag_value(draw, argv, "--cycles", st.sampled_from(("1", "2", "5")))
    if draw(st.integers(0, 9)) == 0:  # a flag the request declares but may not read
        argv += draw(st.sampled_from((["--seed", "1"], ["--reps", "10"], ["--order", "0.5"], ["--kind", "rss"])))
    return argv


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=200, deadline=None)
@given(_cli_request())
def test_every_cli_request_exits_cleanly(argv):
    # the memo is emptied so that every request runs, and every warning counts as output on stderr
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), mock.patch.object(cli, "_REPORTS", cli._ReportMemo()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses a value that is not among a flag's choices or types
            code = e.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert not caught, (argv, [str(w.message) for w in caught])
    assert len(err.getvalue().splitlines()) == (code != 0), (argv, err.getvalue())
    assert not _NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
