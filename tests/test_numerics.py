import dataclasses
import functools
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import prosinfo as P
from prosinfo import make_balanced_design, make_model, make_symmetric_alpha, numerics
from prosinfo.models import score_information
from prosinfo.numerics import (
    CHUNK_SIZE,
    DEFAULT_SEED,
    InfoMatrix,
    IntegrandEvaluationError,
    MCEstimate,
    QuadratureNonConvergence,
    ReplicateError,
    det_small,
    integrate,
    integrate_expectation,
    integrate_unit_interval,
    mc_mean_batches,
    substream,
)

ZETA3 = 1.2020569031595942853997381615114  # Apery's constant, zeta(3)


def test_integrate_constant_is_one():
    np.testing.assert_allclose(integrate_unit_interval(lambda u: 1.0), 1.0, rtol=1e-10)


def test_integrate_polynomial():
    np.testing.assert_allclose(integrate_unit_interval(lambda u: u), 0.5, rtol=1e-10)
    np.testing.assert_allclose(
        integrate_unit_interval(lambda u: 12.0 * u * (1.0 - u)), 2.0, rtol=1e-9
    )


def test_integrate_endpoint_singularity():
    # integrable singularity at 0: the open interval keeps all of its mass
    got = integrate_unit_interval(lambda u: 1.0 / math.sqrt(u))
    np.testing.assert_allclose(got, 2.0, rtol=1e-12)


def test_integrate_rejects_non_finite_integrand():
    def bad(u):
        return float("nan") if u > 0.5 else 1.0

    with pytest.raises(IntegrandEvaluationError) as err:
        integrate_unit_interval(bad)
    assert err.value.u > 0.5


def test_integrate_reports_non_convergence():
    # 1000 periods outrun the finest tanh-sinh level at the 1e-8 tolerance
    def fast_oscillation(t, s):
        return np.sin(2000.0 * math.pi * t)[None] ** 2

    assert (numerics.RTOL, numerics.ATOL) == (1e-8, 1e-12)
    with pytest.raises(QuadratureNonConvergence) as err:
        integrate(fast_oscillation)
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0


@pytest.mark.parametrize("a", (0.1, 0.3, 0.5, 0.9))
def test_integrate_power_singularities_at_both_ends(a):
    # t^(a-1) and its mirror (1-t)^(a-1), read from the exact complement s, are alike to the rule
    got = integrate(lambda t, s: np.stack([t ** (a - 1.0), s ** (a - 1.0)]))
    np.testing.assert_allclose(got, [1.0 / a, 1.0 / a], rtol=1e-12, atol=0.0)


def _on_unit_interval(a, b, rows):
    """fn(t, s) whose integral over (0, 1) is that of rows(x) over (a, b): x = a + (b - a) t for finite limits,
    read from s above t = 1/2, x = 1/t - 1 + a for b = inf, its reflection for a = -inf, and
    y/(1 - y^2) at y = t - s, 1 - y^2 = 4 t s, for both.  A node whose x or Jacobian overflows adds 0."""

    def fn(t, s):
        if math.isfinite(a) and math.isfinite(b):
            x, jac = np.where(t <= 0.5, a + (b - a) * t, b - (b - a) * s), b - a
        elif math.isfinite(a):
            x, jac = 1.0 / t - 1.0 + a, 1.0 / (t * t)
        elif math.isfinite(b):
            x, jac = b + 1.0 - 1.0 / t, 1.0 / (t * t)
        else:
            y, ts = t - s, 4.0 * t * s
            x, jac = y / ts, 2.0 * (1.0 + y * y) / (ts * ts)
        return np.where(np.isfinite(x) & np.isfinite(jac), np.stack(rows(x)) * jac, 0.0)

    return fn


@pytest.mark.parametrize(
    "a,b,scale", ((-math.inf, math.inf, 1.0), (0.0, math.inf, 0.5), (-math.inf, 0.0, 0.5))
)
def test_integrate_infinite_limits_vector(a, b, scale):
    # a Gaussian and an algebraic tail share one pass
    got = integrate(_on_unit_interval(a, b, lambda x: [np.exp(-x * x), 1.0 / (1.0 + x * x)]))
    np.testing.assert_allclose(got, [scale * math.sqrt(math.pi), scale * math.pi], rtol=1e-12)


def _scipy_tanhsinh(fn):
    """integrate's stop rule on scipy's own tanh-sinh driver over (0, 1), as an independent oracle."""
    from scipy.integrate import tanhsinh

    k = np.asarray(fn(np.array([0.5]), np.array([0.5]))).shape[0]
    previous = []

    def stop_when_levels_agree(res):
        if np.min(res.maxlevel) < 0:
            return
        if previous:
            change = np.max(np.abs(res.integral - previous[-1]))
            if change <= max(numerics.ATOL, numerics.RTOL * np.max(np.abs(res.integral))):
                raise StopIteration
        previous.append(np.array(res.integral))

    def integrand(x):
        # scipy passes no complement: a node that rounds onto 1 contributes nothing
        inside = x[0] < 1.0
        values = np.zeros(x.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = x[0][inside]
            values[:, inside] = np.asarray(fn(t, 1.0 - t), dtype=float).reshape(k, -1)
        return values

    res = tanhsinh(integrand, np.zeros(k), 1.0, atol=0.0, rtol=0.0, minlevel=4,
                   preserve_shape=True, callback=stop_when_levels_agree)
    assert np.all(res.status == -4), res.status
    return res.integral


_CLOSED_FORMS = (
    # (a, b, rows of fn, their integrals over (a, b))
    (0.0, 2.0, lambda x: [np.sqrt(x), np.exp(x)], [2.0 / 3.0 * 2.0**1.5, math.expm1(2.0)]),
    (-1.0, 3.0, lambda x: [x**3, 1.0 / (1.0 + x * x)], [20.0, math.atan(3.0) + math.pi / 4.0]),
    (1.0, math.inf, lambda x: [np.exp(-x), x**-2.0], [math.exp(-1.0), 1.0]),
    (0.0, math.inf, lambda x: [x * np.exp(-x), 1.0 / (1.0 + x * x)], [1.0, math.pi / 2.0]),
    (-math.inf, 0.5, lambda x: [np.exp(-x * x), np.exp(x)], [math.sqrt(math.pi) / 2.0 * (1.0 + math.erf(0.5)), math.exp(0.5)]),
    (-math.inf, -1.0, lambda x: [x**-2.0, np.exp(2.0 * x)], [1.0, math.exp(-2.0) / 2.0]),
    (-math.inf, math.inf, lambda x: [np.exp(-x * x / 2.0), 1.0 / (1.0 + x * x)], [math.sqrt(2.0 * math.pi), math.pi]),
)


@pytest.mark.parametrize("a,b,rows,want", _CLOSED_FORMS)
@pytest.mark.parametrize("mirror", (False, True))
def test_integrate_matches_scipy_tanhsinh(a, b, rows, want, mirror):
    # the (0, 1) form of each closed form, and its mirror image t -> 1 - t, which puts the other end's tail at 1
    fn = _on_unit_interval(a, b, rows)
    if mirror:
        fn = (lambda f: lambda t, s: f(s, t))(fn)
    got = integrate(fn)
    np.testing.assert_allclose(got, _scipy_tanhsinh(fn), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_information_matches_scipy_tanhsinh_at_set_size_64(monkeypatch):
    from prosinfo import numerics
    from prosinfo.designs import make_balanced_design, make_symmetric_alpha
    from prosinfo.information import fi_pros_marginal, k_matrix

    def compute():
        normal = make_model("normal")
        marginal = fi_pros_marginal(make_model("logistic"), make_balanced_design(64, 4), make_symmetric_alpha(4, 0.8))
        return [k_matrix(normal, 4, 64).as_array(), marginal.matrix.as_array()]

    got = compute()
    monkeypatch.setattr(numerics, "integrate", _scipy_tanhsinh)
    for mine, oracle in zip(got, compute()):
        np.testing.assert_allclose(mine, oracle, rtol=0.0, atol=1e-13 * np.max(np.abs(oracle)))


def test_integrate_reports_abscissa_on_an_infinite_limit():
    def nan_beyond_ten(x):
        return [np.where(x > 10.0, np.nan, np.exp(-x))]

    with pytest.raises(IntegrandEvaluationError) as err:
        integrate(_on_unit_interval(0.0, math.inf, nan_beyond_ten))
    # the node reported is the t of an x beyond 10 on x = 1/t - 1
    assert 0.0 < err.value.u < 1.0 / 11.0


def _reference_sums(fn):
    """integrate's sums with one fn call per table of numerics._LEVELS; returns (integrals, tables used)."""
    previous = None
    for used, (h, xc, w) in enumerate(numerics._LEVELS, start=1):
        half = xc / 2
        t, s = np.concatenate((1.0 - half, half)), np.concatenate((half, 1.0 - half))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = np.asarray(fn(t, s), dtype=float)
        total = values @ (np.concatenate((w, w)) / 2) * h
        if previous is not None:
            total += previous / 2
            if np.max(np.abs(total - previous)) <= max(numerics.ATOL, numerics.RTOL * np.max(np.abs(total))):
                return total, used
        previous = total
    raise AssertionError("the oracle did not converge")


_LEVEL_CASES = (
    # (a, b, rows of fn, tables of numerics._LEVELS the stop rule needs)
    (0.0, 2.0, lambda x: [x * x, np.exp(x)], 2),
    (0.0, 1.0, lambda x: [np.sin(60.0 * x) ** 2, np.cos(x)], 3),
    (1.0, 0.0, lambda x: [np.sin(150.0 * x) ** 2, x], 4),
    (-1.0, 1.0, lambda x: [1.0 / (1e-4 + x * x), x**3], 7),
    (0.0, math.inf, lambda x: [np.exp(-x), x * np.exp(-x)], 2),
    (-math.inf, 1.0, lambda x: [np.exp(x) * np.sin(3.0 * x) ** 2, np.exp(2.0 * x)], 4),
    (-math.inf, math.inf, lambda x: [np.exp(-x * x / 2.0), 1.0 / (1.0 + x * x)], 2),
    (-math.inf, math.inf, lambda x: [np.exp(-x * x) * np.cos(8.0 * x), np.exp(-x * x)], 3),
)


@pytest.mark.parametrize("a,b,rows,tables", _LEVEL_CASES)
def test_integrate_fuses_the_first_stop_test_into_one_call(a, b, rows, tables):
    calls = []
    unit = _on_unit_interval(a, b, rows)

    def fn(t, s):
        calls.append(t.size)
        return unit(t, s)

    want, used = _reference_sums(unit)
    assert used == tables
    got = integrate(fn)
    assert got.tobytes() == want.tobytes()
    # levels 0..MIN_LEVEL and MIN_LEVEL + 1 share the first call; each later level costs one more, and every
    # node of a table is kept, also where t rounds to 1
    sizes = [2 * xc.size for _, xc, _ in numerics._LEVELS[:tables]]
    assert calls == [sizes[0] + sizes[1]] + sizes[2:]


def test_unit_interval_nodes_are_built_once_and_read_only():
    for tables, nodes, t, s in zip(numerics._CALLS, numerics._NODES, numerics._T, numerics._S):
        assert len(nodes) == len(tables)
        for (_, xc, w), (level_t, level_s, wt) in zip(tables, nodes):
            n = xc.size
            # the lower half's t and the upper half's s are xc / 2 exactly; the other is its complement
            assert level_t[n:].tobytes() == level_s[:n].tobytes() == (xc / 2).tobytes()
            assert level_t[:n].tobytes() == level_s[n:].tobytes() == (1.0 - xc / 2).tobytes()
            assert wt.tobytes() == (np.concatenate((w, w)) / 2).tobytes()
            for arr in (level_t, level_s, wt):
                with pytest.raises(ValueError):
                    arr[0] = 0.5
        assert t.tobytes() == np.concatenate([level_t for level_t, _, _ in nodes]).tobytes()
        assert s.tobytes() == np.concatenate([level_s for _, level_s, _ in nodes]).tobytes()
        for arr in (t, s):
            with pytest.raises(ValueError):
                arr[0] = 0.5
    # both ends reach below 1e-307, and the upper end's nodes are there although their t rounded to 1
    last = numerics._NODES[0][0]
    assert last[0].min() < 1e-307 and last[1].min() < 1e-307 and (last[0] == 1.0).sum() > 0


def test_unit_interval_integrals_use_the_import_time_nodes():
    seen = []

    def rows(t, s):
        seen.append((t, s))
        return np.stack([np.sin(150.0 * t) ** 2, np.log(t) * np.log(s), t])

    want, used = _reference_sums(rows)
    assert used > 2  # the integral runs past the first fn call
    seen.clear()
    got = integrate(rows)
    assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(got[1:], [2.0 - math.pi**2 / 6.0, 0.5], rtol=1e-12)
    assert all(t is numerics._T[i] and s is numerics._S[i] for i, (t, s) in enumerate(seen))


def test_integrate_reports_the_first_bad_node_in_level_order():
    coarse, fine = (numerics._NODES[0][i][0] for i in (0, 1))

    def nan_at(*nodes):
        return lambda t, s: np.where(np.isin(t, nodes), np.nan, 1.0)[None]

    # only level-5 nodes bad; two of them; a level-5 node and a coarse node that fn receives first
    for bad, first in (([fine[7]], fine[7]), ([fine[-1], fine[3]], fine[3]), ([fine[0], coarse[-1]], coarse[-1])):
        with pytest.raises(IntegrandEvaluationError) as err:
            integrate(nan_at(*bad))
        assert err.value.u == first


def test_import_leaves_scipy_integrate_unloaded():
    # importing scipy.integrate took most of the package's start-up time, and
    # the tanh-sinh kernel needs none of it
    import prosinfo

    src = os.path.dirname(os.path.dirname(prosinfo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, prosinfo, prosinfo.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _exponential_rank_integrand():
    # squared scale-score of the cdf over F(1-F): the ranking-information kernel
    model = make_model("exponential")

    def k_integrand(x):
        sc = model.score_cdf(x)[0]
        cdf = model.cdf(x)
        return sc * sc / (cdf * (1.0 - cdf))

    return model, k_integrand


def test_expectation_uniform_constant():
    np.testing.assert_allclose(
        integrate_expectation(make_model("uniform"), lambda x: 1.0), 1.0, rtol=1e-10
    )


def test_expectation_normal_mean_is_zero():
    got = integrate_expectation(make_model("normal"), lambda x: x)
    assert abs(got) < 1e-10


def test_expectation_exponential_rank_info_constant():
    # E{(dF/dsigma)^2 / (F(1-F))} for the standard exponential = 2(zeta(3) - 1)
    model, k_integrand = _exponential_rank_integrand()
    got = integrate_expectation(model, k_integrand)
    np.testing.assert_allclose(got, 0.4041, atol=1e-3)
    np.testing.assert_allclose(got, 2.0 * (ZETA3 - 1.0), rtol=1e-9)


def test_quantile_domain_weight_normalizes_for_every_family():
    # integrating g(Q(u)) == 1 over u is exact mass for any continuous parent
    from prosinfo import family_names

    for fam in family_names():
        model = make_model(fam)
        got = integrate_expectation(model, lambda x: 1.0)
        np.testing.assert_allclose(got, 1.0, atol=1e-9, err_msg=fam)


def _unit_weight(t):
    return np.ones((1, t.size))


def test_score_information_closed_forms():
    # over the open interval no tail of the scale information is lost
    unit = score_information(make_model("normal"), lambda t, s: (1.0, None, _unit_weight(t)))
    np.testing.assert_allclose(unit, np.diag([1.0, 2.0]), rtol=1e-12, atol=1e-12)
    got = score_information(make_model("exponential"), lambda t, s: (None, 1.0, (1.0 / (t * s))[None]))
    np.testing.assert_allclose(got, [[0.4041]], atol=1e-4)
    np.testing.assert_allclose(got, [[2.0 * (ZETA3 - 1.0)]], rtol=1e-9)


def test_score_information_of_two_terms_sums_the_one_term_kernels():
    # rows b of (alpha, beta, w): v_b = alpha_b d log f + beta_b dF, weighted by w_b
    model = make_model("logistic")
    terms = (lambda t: (np.ones_like(t), t, np.ones_like(t)), lambda t: (t, np.full_like(t, -0.5), 2.0 * t * t))
    one = [score_information(model, lambda t, s, f=f: tuple(c[None] for c in f(t))) for f in terms]
    both = score_information(model, lambda t, s: tuple(np.stack(c) for c in zip(terms[0](t), terms[1](t))))
    np.testing.assert_allclose(both, one[0] + one[1], rtol=1e-10)


def test_score_information_refuses_a_non_finite_term_of_positive_weight():
    normal = make_model("normal")
    with pytest.raises(IntegrandEvaluationError) as err:
        score_information(normal, lambda t, s: (1.0, np.where(t > 0.5, np.nan, 1.0)[None], _unit_weight(t)))
    assert err.value.u > 0.5

    def zero_weight_nan(t, s):
        # a term whose weight vanishes contributes nothing, finite or not
        beta = np.stack([np.zeros_like(t), np.full_like(t, np.nan)])
        return 1.0, beta, np.stack([np.ones_like(t), np.zeros_like(t)])

    want = score_information(normal, lambda t, s: (1.0, None, _unit_weight(t)))
    np.testing.assert_array_equal(score_information(normal, zero_weight_nan), want)


def test_score_information_reports_non_convergence():
    with pytest.raises(QuadratureNonConvergence) as err:
        score_information(make_model("exponential"), lambda t, s: (np.sin(2e4 * t)[None], None, _unit_weight(t)))
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0


def test_score_information_of_zero_scores_is_zero():
    got = score_information(make_model("normal"), lambda t, s: (0.0, np.zeros((1, t.size)), _unit_weight(t)))
    np.testing.assert_array_equal(got, np.zeros((2, 2)))


def test_det_small_closed_forms():
    np.testing.assert_allclose(det_small(np.array([[2.0]])), 2.0)
    np.testing.assert_allclose(
        det_small(np.diag([1.4805, 2.2700])), 3.3607, atol=1e-3
    )
    np.testing.assert_allclose(det_small(np.array([[2.0, 1.0], [1.0, 2.0]])), 3.0)


def test_det_small_matches_cofactor_expansion():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        m = a + a.T
        cofactor = (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
        np.testing.assert_allclose(det_small(m), cofactor, rtol=1e-12)
        np.testing.assert_allclose(det_small(m), np.linalg.det(m), rtol=1e-10)


def test_det_small_rejects_large_matrices():
    with pytest.raises(ValueError):
        det_small(np.eye(4))


def test_info_matrix_validation():
    InfoMatrix(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        InfoMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        InfoMatrix(np.diag([1.0, -2.0]))  # negative diagonal
    with pytest.raises(ValueError):
        InfoMatrix(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        InfoMatrix(np.eye(4))
    with pytest.raises(ValueError):
        InfoMatrix(np.ones((2, 3)))


def _info_matrix_error(entries):
    try:
        InfoMatrix(entries)
    except ValueError as e:
        return str(e)
    return None


def test_info_matrix_check_edges():
    # each check at its bound, with the message it raises: tol = 1e-12 max(largest |entry|, 1)
    finite = "InfoMatrix entries must be finite"
    for bad in ([[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, -np.inf]]):
        assert _info_matrix_error(bad) == finite, bad
    for largest in (0.25, 4.0, 3e5):
        tol = 1e-12 * max(largest, 1.0)
        for i, j in ((0, 1), (2, 0), (1, 2)):
            a = np.diag([largest, largest / 2, largest / 4])
            a[i, j] = tol  # |a_ij - a_ji| = tol exactly
            assert _info_matrix_error(a) is None
            np.testing.assert_array_equal(InfoMatrix(a).entries[i, j], tol / 2)
            a[i, j] = np.nextafter(tol, np.inf)
            assert _info_matrix_error(a) == "InfoMatrix entries are not symmetric"
        for k in (1, 2):
            a = np.diag([largest, largest / 2, largest / 4])
            a[k, k] = -tol
            assert _info_matrix_error(a) is None
            a[k, k] = np.nextafter(-tol, -np.inf)
            assert _info_matrix_error(a) == "InfoMatrix diagonal entries must be non-negative"


def test_info_matrix_arithmetic():
    a = InfoMatrix(np.diag([1.0, 2.0]))
    np.testing.assert_allclose((a.scaled(3.0)).as_array(), np.diag([3.0, 6.0]))
    np.testing.assert_allclose(np.asarray(a) + InfoMatrix([[1.0, 0.5], [0.5, 1.0]]), [[2.0, 0.5], [0.5, 3.0]])
    assert a.p == 2
    assert a[0, 0] == 1.0
    out = a.as_array()
    out[0, 0] = 99.0
    assert a[0, 0] == 1.0  # as_array returns a copy


def test_mc_estimate_validation():
    MCEstimate(value=1.0, std_error=0.0, replications=2)
    with pytest.raises(ValueError):
        MCEstimate(value=1.0, std_error=0.0, replications=1)
    with pytest.raises(ValueError):
        MCEstimate(value=1.0, std_error=-1.0, replications=10)


@pytest.mark.parametrize("value, want", ((3, 3), (3.0, 3), (np.int64(3), 3), (np.float32(3.0), 3), (True, 1)))
def test_whole_gives_an_integral_value_as_its_int(value, want):
    got = numerics.whole(value, "size", 1)
    assert got == want and type(got) is int


@pytest.mark.parametrize("value, least, message", (
    (2.5, None, "size must be an integer, got 2.5"),
    ("3", None, "size must be an integer, got '3'"),
    (float("nan"), None, "size must be an integer, got nan"),
    (float("inf"), 0, "size must be an integer, got inf"),
    (None, 0, "size must be an integer, got None"),
    (0, 1, "size must be >= 1, got 0"),
    (np.int64(-1), 0, "size must be >= 0, got -1"),
    (1.0, 2, "size must be >= 2, got 1.0"),
))
def test_whole_refuses_with_the_callers_error(value, least, message):
    class Refused(ValueError):
        pass

    with pytest.raises(Refused, match=f"^{re.escape(message)}$"):
        numerics.whole(value, "size", least, Refused)


_NORMAL = make_model("normal")
_DESIGN = make_balanced_design(6, 2)
_BLOCKS = ((1, 2, 3), (4, 5, 6))
_MC_ROUTES = (
    lambda **kw: P.fi_pros_complete(_NORMAL, 2, 6, method="mc", **kw),
    lambda **kw: P.fi_pros_marginal(_NORMAL, _DESIGN, make_symmetric_alpha(2, 0.8), method="mc", **kw),
    lambda **kw: P.fi_unbalanced(_NORMAL, _DESIGN, method="mc", **kw),
    lambda **kw: P.verify_lemma_identity(_NORMAL, _DESIGN, lambda x: x, **kw),
    lambda **kw: mc_mean_batches(lambda rng, count: rng.random(count), **{"reps": 5000, "seed": 1, **kw}),
)

# (call, the route's error class, its message): each route checks its sizes through numerics.whole
_SIZE_REFUSALS = (
    (lambda: P.fisher_srs(_NORMAL, 1.5), P.InformationError, "count must be an integer, got 1.5"),
    (lambda: P.k_matrix(_NORMAL, 2.5, 6), P.InformationError, "n must be an integer, got 2.5"),
    (lambda: P.k_matrix(_NORMAL, 0, 6), P.InformationError, "n must be >= 1, got 0"),
    (lambda: P.h_matrix(_NORMAL, 2, 6.5), P.InformationError, "set_size must be an integer, got 6.5"),
    (lambda: P.h_matrix(_NORMAL, 2.5, 2.5), P.InformationError, "n must be an integer, got 2.5"),
    (lambda: P.regression_fi(_NORMAL, [-1, 0, 1], 1.5, 6), P.InformationError, "n must be an integer, got 1.5"),
    (lambda: P.regression_fi(_NORMAL, [-1, 0, 1], 0, 6), P.InformationError, "n must be >= 1, got 0"),
    (lambda: P.regression_fi(_NORMAL, [-1, 0, 1], 2, 0), P.InformationError, "set_size must be >= 1, got 0"),
    (lambda: P.fi_pros_marginal(_NORMAL, _DESIGN, method="mc", reps=5000, seed=1.5), ValueError,
     "seed must be an integer, got 1.5"),
    (lambda: P.draw_pros(_NORMAL, _DESIGN, seed=7.9), ValueError, "seed must be an integer, got 7.9"),
    (lambda: P.draw_pros(_NORMAL, _DESIGN, seed="3"), ValueError, "seed must be an integer, got '3'"),
    (lambda: P.draw_pros(_NORMAL, _DESIGN, seed=-1), ValueError, "seed must be >= 0, got -1"),
    (lambda: P.draw_srs(_NORMAL, 3, seed=-1), ValueError, "seed must be >= 0, got -1"),
    (lambda: P.estimate_alphas(_NORMAL, 6, [_BLOCKS], [0.5], 200, seed=2.5), ValueError,
     "seed must be an integer, got 2.5"),
    (lambda: P.estimate_unbalanced_alphas(_NORMAL, _DESIGN, 0.5, 200, seed="3"), ValueError,
     "seed must be an integer, got '3'"),
    (lambda: P.shannon(_NORMAL, "srs", 1.5), P.EntropyError, "n must be an integer, got 1.5"),
    (lambda: P.shannon(_NORMAL, "pros", 2, 6.5), P.EntropyError, "set_size must be an integer, got 6.5"),
    (lambda: P.renyi(_NORMAL, 0.5, "pros", 2, 0), P.EntropyError, "set_size must be >= 1, got 0"),
    (lambda: P.draw_srs(_NORMAL, 2.5), P.SamplingError, "sample size must be an integer, got 2.5"),
    (lambda: P.estimate_alphas(_NORMAL, 6.5, [_BLOCKS], [0.5], 200), P.SamplingError,
     "set_size must be an integer, got 6.5"),
    (lambda: P.identity_alpha(2.5), P.DesignError, "n must be an integer, got 2.5"),
    (lambda: P.identity_alpha(0), P.DesignError, "n must be >= 1, got 0"),
    (lambda: P.make_symmetric_alpha(1, 0.5), P.DesignError, "n must be >= 2, got 1"),
    (lambda: P.make_symmetric_alpha(2.5, 0.5), P.DesignError, "n must be an integer, got 2.5"),
    (lambda: P.make_balanced_design(0, 2), P.DesignError, "set_size must be >= 1, got 0"),
    (lambda: P.make_balanced_design(6, 0), P.DesignError, "n must be >= 1, got 0"),
    (lambda: P.fi_pros_complete(_NORMAL, 0, 6), P.InformationError, "n must be >= 1, got 0"),
    (lambda: MCEstimate(1.0, 0.0, 1), ValueError, "replications must be >= 2, got 1"),
    (lambda: MCEstimate(1.0, 0.0, 2.5), ValueError, "replications must be an integer, got 2.5"),
    (lambda: substream(-1), ValueError, "seed must be >= 0, got -1"),
    *((lambda route=route: route(reps=100.5), ValueError, "reps must be an integer, got 100.5")
      for route in _MC_ROUTES),
    *((lambda route=route: route(reps=1), ValueError, "reps must be >= 2, got 1") for route in _MC_ROUTES),
    *((lambda route=route: route(reps=5000, workers=1.5), ValueError, "workers must be an integer, got 1.5")
      for route in _MC_ROUTES),
)


@pytest.mark.parametrize("call, error, message", _SIZE_REFUSALS)
def test_every_route_refuses_a_bad_size_with_its_own_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        call()
    assert type(refused.value) is error and isinstance(refused.value, ValueError)


def _same(a, b):
    """Whether two results hold the same bits, field by field."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if a is None or isinstance(a, (str, int, float)):
        return type(a) is type(b) and repr(a) == repr(b)
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# calls that take each size as w(k) of an int k, with the names of those sizes
_INTEGRAL_CALLS = (
    (lambda w: P.shannon(_NORMAL, "rss", w(2)), "n"),
    (lambda w: P.shannon(_NORMAL, "pros", w(2), w(6)), "n, set_size"),
    (lambda w: P.draw_srs(_NORMAL, w(5), seed=w(3)), "n, seed"),
    (lambda w: P.make_symmetric_alpha(w(2), 0.5).entries, "n"),
    (lambda w: P.identity_alpha(w(3)).entries, "n"),
    (lambda w: [[m.entries for m in row] for row in P.estimate_alphas(_NORMAL, w(6), [_BLOCKS], [0.5], w(300), w(4))],
     "set_size, reps, seed"),
    (lambda w: P.fi_pros_complete(_NORMAL, w(2), w(6), w(2), method="mc", reps=w(5000), seed=w(3)),
     "n, set_size, cycles, reps, seed"),
    (lambda w: P.fi_pros_marginal(_NORMAL, _DESIGN, make_symmetric_alpha(2, 0.8), method="mc", reps=w(5000),
                                  seed=w(3), workers=w(2)), "reps, seed, workers"),
    (lambda w: P.verify_lemma_identity(_NORMAL, _DESIGN, lambda x: x, reps=w(5000), seed=w(3), workers=w(2)),
     "reps, seed, workers"),
    (lambda w: mc_mean_batches(lambda rng, count: rng.random(count), w(5000), w(1), w(2)), "reps, seed, workers"),
)


@pytest.mark.parametrize("call, sizes", _INTEGRAL_CALLS)
@pytest.mark.parametrize("kind", (float, np.int64, np.float64))
def test_an_integral_size_of_another_type_gives_the_bits_of_the_int(three_cpus, call, sizes, kind):
    assert _same(call(kind), call(int)), sizes


def test_substream_is_keyed_and_reproducible():
    a = substream(7, 3).random(5)
    b = substream(7, 3).random(5)
    c = substream(7, 4).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mc_mean_constant_has_zero_error():
    means, ses, reps = mc_mean_batches(lambda rng, count: np.full(count, 3.0), reps=10_000, seed=DEFAULT_SEED)
    assert means[0] == 3.0
    assert ses[0] == 0.0
    assert reps == 10_000


def test_mc_mean_standard_normal_clt():
    reps = 50_000
    means, ses, _ = mc_mean_batches(lambda rng, count: rng.standard_normal(count), reps=reps, seed=DEFAULT_SEED)
    assert abs(means[0]) <= 3.0 / math.sqrt(reps)
    np.testing.assert_allclose(ses[0], 1.0 / math.sqrt(reps), rtol=0.05)


@pytest.fixture
def three_cpus(monkeypatch):
    # lets mc_mean_batches run up to three workers on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def _assert_no_worker_left():
    assert [t.name for t in threading.enumerate() if t.name.startswith("mc-worker")] == []


def _by_chunk(seed, n_chunks, fn):
    """A batch function calling fn(chunk index, count) for each chunk of its pass, found from the chunk's first draw."""
    first = {substream(seed, idx).random(): idx for idx in range(n_chunks)}

    def batch(rng, count):
        draws = rng.random(count)
        starts = [i for i, d in enumerate(draws) if d in first] + [count]
        return np.concatenate([fn(first[draws[lo]], hi - lo) for lo, hi in zip(starts, starts[1:])])

    return batch


def test_mc_mean_batches_matches_manual_merge(three_cpus):
    def batch(rng, count):
        z = rng.standard_normal(count)
        return np.column_stack([z, z * z])

    means, ses, reps = mc_mean_batches(batch, reps=20_000, seed=3)
    assert reps == 20_000
    assert abs(means[0]) <= 4.0 * ses[0]
    assert abs(means[1] - 1.0) <= 4.0 * ses[1]
    for workers in (2, 3, 5):
        m1, s1, _ = mc_mean_batches(batch, reps=20_000, seed=3, workers=workers)
        np.testing.assert_array_equal(means, m1)
        np.testing.assert_array_equal(ses, s1)
        _assert_no_worker_left()


@pytest.mark.parametrize("bad_chunks", [(5, 8), (4, 7)])
def test_mc_mean_batches_raises_the_lowest_bad_replicate_at_every_worker_count(three_cpus, bad_chunks):
    # at workers=2 the parent owns chunk 8 of (5, 8) and chunk 4 of (4, 7)
    def fn(idx, count):
        return np.where((np.arange(count) == 9) & (idx in bad_chunks), np.nan, 1.0)

    batch = _by_chunk(7, 12, fn)
    for workers in (1, 2, 3):
        with pytest.raises(ReplicateError) as err:
            mc_mean_batches(batch, reps=12 * CHUNK_SIZE, seed=7, workers=workers)
        assert err.value.index == bad_chunks[0] * CHUNK_SIZE + 9
        _assert_no_worker_left()


@pytest.fixture
def eight_cpus(monkeypatch):
    # lets mc_mean_batches run up to eight workers on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


@pytest.mark.parametrize("workers", (1, 2, 3, 7))
def test_mc_mean_batches_evaluates_a_failing_chunk_twice_at_every_worker_count(eight_cpus, workers):
    # once in its worker's pass, which stops there, and once alone in the caller's index-order walk
    evaluated = []

    def fn(idx, count):
        evaluated.append(idx)
        return np.where((np.arange(count) == 9) & (idx == 5), np.nan, 1.0)

    with pytest.raises(ReplicateError) as err:
        mc_mean_batches(_by_chunk(7, 12, fn), reps=12 * CHUNK_SIZE, seed=7, workers=workers)
    assert err.value.index == 5 * CHUNK_SIZE + 9
    assert evaluated.count(5) == 2
    _assert_no_worker_left()


def _chan_merge_of_lone_chunks(batch, reps, seed):
    """(means, standard errors) of every chunk evaluated alone from its own substream, merged in index order."""
    moments = []
    for idx in range(-(-reps // CHUNK_SIZE)):
        values = np.ascontiguousarray(batch(substream(seed, idx), min(CHUNK_SIZE, reps - idx * CHUNK_SIZE)).T)
        mean = values.mean(axis=1)
        moments.append((values.shape[1], mean, ((values - mean[:, None]) ** 2).sum(axis=1)))
    n, mean, m2 = functools.reduce(numerics._merge_moments, moments)
    return mean, np.sqrt(m2 / (n - 1) / n)


def test_mc_mean_batches_passes_equal_chunks_evaluated_alone(three_cpus):
    # each row reads its own uniform, normal and beta draws, which the pass splits across the chunks' substreams
    def batch(rng, count):
        u, z = rng.random(count), rng.standard_normal(count)
        return np.column_stack([u, z * u, rng.beta(1.0 + 3.0 * u, 2.0)])

    reps = (numerics.PASS_CHUNKS + 2) * CHUNK_SIZE + 77
    want = _chan_merge_of_lone_chunks(batch, reps, 13)
    for workers in (1, 2, 3):
        means, ses, _ = mc_mean_batches(batch, reps=reps, seed=13, workers=workers)
        np.testing.assert_array_equal(means, want[0])
        np.testing.assert_array_equal(ses, want[1])
        _assert_no_worker_left()


def test_mc_mean_batches_never_passes_more_than_its_cap():
    counts = []

    def spy(rng, count):
        counts.append(count)
        return rng.random(count)

    reps = (numerics.PASS_CHUNKS + 2) * CHUNK_SIZE + 77
    mc_mean_batches(spy, reps=reps, seed=1)
    assert max(counts) == numerics.PASS_CHUNKS * CHUNK_SIZE
    assert sum(counts) == reps


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_mc_mean_batches_refuses_a_draw_of_another_length(three_cpus, workers):
    with pytest.raises(ValueError, match="length"):
        mc_mean_batches(lambda rng, count: rng.random(count - 1), reps=2 * CHUNK_SIZE, seed=1, workers=workers)
    with pytest.raises(ValueError, match="length"):
        mc_mean_batches(lambda rng, count: rng.beta(np.ones(count + 1), 2.0)[:count], reps=100, seed=1, workers=workers)


def test_mc_mean_batches_runs_workers_beside_other_threads(three_cpus):
    threads = set()

    def batch(rng, count):
        threads.add(threading.get_ident())
        return rng.standard_normal(count)

    reps = 6 * CHUNK_SIZE
    serial, serial_se, _ = mc_mean_batches(batch, reps=reps, seed=5)
    assert threads == {threading.get_ident()}
    threaded, threaded_se, _ = mc_mean_batches(batch, reps=reps, seed=5, workers=2)
    assert len(threads) == 2  # a worker thread evaluated some chunks
    np.testing.assert_array_equal(threaded, serial)
    np.testing.assert_array_equal(threaded_se, serial_se)
    _assert_no_worker_left()

    # another thread alive does not keep the call on the calling thread
    release = threading.Event()
    bystander = threading.Thread(target=release.wait)
    bystander.start()
    threads.clear()
    try:
        beside, beside_se, _ = mc_mean_batches(batch, reps=reps, seed=5, workers=2)
    finally:
        release.set()
        bystander.join(timeout=10)
    assert not bystander.is_alive()
    assert len(threads - {threading.get_ident()}) == 1
    np.testing.assert_array_equal(beside, serial)
    np.testing.assert_array_equal(beside_se, serial_se)
    _assert_no_worker_left()


def test_mc_mean_batches_joins_workers_when_interrupted(three_cpus, monkeypatch):
    monkeypatch.setattr(numerics, "PASS_CHUNKS", 1)
    worker_busy = threading.Event()
    worker_passes = []

    def batch(rng, count):
        if threading.current_thread() is threading.main_thread():
            assert worker_busy.wait(timeout=10)
            raise KeyboardInterrupt
        worker_passes.append(count)
        worker_busy.set()
        time.sleep(0.2)  # a worker still in its pass when the caller leaves
        return np.zeros(count)

    with pytest.raises(KeyboardInterrupt):
        mc_mean_batches(batch, reps=8 * CHUNK_SIZE, seed=1, workers=2)
    _assert_no_worker_left()
    assert worker_passes == [CHUNK_SIZE]  # the worker ends after its pass, not after its 4 chunks


def test_mc_mean_batches_two_callers_at_once_match_serial(three_cpus):
    lock, drawn = threading.Lock(), []

    def batch(rng, count):
        with lock:
            drawn.append(count)
        u = rng.random(count)
        return np.column_stack([u, rng.beta(1.0 + 3.0 * u, 2.0), rng.standard_normal(count)])

    reps = 5 * CHUNK_SIZE + 123
    want = mc_mean_batches(batch, reps=reps, seed=17)
    drawn.clear()
    start = threading.Barrier(2)
    results = [None, None]

    def caller(i):
        start.wait(timeout=10)
        results[i] = mc_mean_batches(batch, reps=reps, seed=17, workers=3)

    # six threads on any host, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    for means, ses, n in results:
        np.testing.assert_array_equal(means, want[0])
        np.testing.assert_array_equal(ses, want[1])
        assert n == reps
    assert sum(drawn) == 2 * reps  # no worker's chunks were lost and evaluated again
    _assert_no_worker_left()


def test_numerics_errors_survive_pickling():
    for err, attrs in [
        (ReplicateError("bad", index=5), {"index": 5}),
        (QuadratureNonConvergence("stalled", 1.5, 2e-3), {"estimate": 1.5, "error_bound": 2e-3}),
        (IntegrandEvaluationError("not finite", u=0.25), {"u": 0.25}),
    ]:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert {name: getattr(back, name) for name in attrs} == attrs
    assert str(ReplicateError("bad", index=5)) == "bad (replicate 5)"
    assert str(IntegrandEvaluationError("not finite", u=0.25)) == "not finite at u=0.25"


def test_mc_mean_batches_validates_batches():
    with pytest.raises(ValueError):
        mc_mean_batches(lambda rng, count: np.zeros(count + 1), reps=100, seed=1)
    with pytest.raises(ReplicateError):
        mc_mean_batches(lambda rng, count: np.full(count, np.nan), reps=100, seed=1)
    with pytest.raises(ReplicateError) as err:
        mc_mean_batches(lambda rng, count: np.where(np.arange(count) == 5, np.inf, 0.0), reps=10, seed=1)
    assert err.value.index == 5
    with pytest.raises(ValueError):
        mc_mean_batches(lambda rng, count: np.zeros(count), reps=1, seed=1)


@pytest.fixture
def empty_memo():
    numerics._memo.clear()
    yield numerics._memo
    numerics._memo.clear()


def test_unit_interval_calls_get_the_same_read_only_node_arrays(empty_memo):
    seen = []

    def rows(t, s):
        seen.append((t, s))
        return np.stack([np.sin(150.0 * t) ** 2, s])

    integrate(rows)
    first = list(seen)
    seen.clear()
    integrate(rows)
    assert len(first) > 1 and len(seen) == len(first)
    for (t, s), (t_again, s_again), joined_t, joined_s in zip(first, seen, numerics._T, numerics._S):
        assert t is t_again is joined_t and s is s_again is joined_s
        assert not t.flags.writeable and not s.flags.writeable


def test_node_memo_keeps_builds_at_unit_nodes_only(empty_memo):
    calls = []

    def build(u):
        calls.append(u.size)
        return (u * 2.0, u + 1.0)

    node = numerics._T[0]
    kept = numerics.node_memo("k", node, build)
    assert numerics.node_memo("k", node, build) is kept and len(calls) == 1
    assert all(not a.flags.writeable for a in kept)
    assert numerics.node_memo("other", node, build) is not kept and len(calls) == 2
    # a copy of the nodes, Monte Carlo draws and the complements s, which key nothing, are built every time
    others = [node.copy(), substream(1).random(node.size), *numerics._S]
    for u in others:
        before = len(calls)
        assert numerics.node_memo("k", u, build)[0].tobytes() == (u * 2.0).tobytes()
        assert len(calls) == before + 1
    assert set(empty_memo) == {("k", 0), ("other", 0)}


def test_node_memo_never_holds_more_than_its_bound(empty_memo):
    node = numerics._T[1]
    for key in range(numerics.MEMO_ENTRIES + 20):
        numerics.node_memo(key, node, lambda u: (u,))
        numerics.node_memo(0, node, lambda u: (u,))  # key 0 stays the most recently used
        assert len(empty_memo) <= numerics.MEMO_ENTRIES
    assert len(empty_memo) == numerics.MEMO_ENTRIES
    kept = {key for key, _ in empty_memo}
    assert 0 in kept and numerics.MEMO_ENTRIES + 19 in kept and 1 not in kept


def test_info_matrix_repr_lists_its_entries():
    assert repr(P.fisher_srs(make_model("normal"), 2)) == "InfoMatrix([[2.0, 0.0], [0.0, 4.0]])"
