import math
import os
import pickle
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from prosinfo import make_model, numerics
from prosinfo.numerics import (
    CHUNK_SIZE,
    DEFAULT_SEED,
    InfoMatrix,
    IntegrandEvaluationError,
    MCEstimate,
    QuadratureNonConvergence,
    QuadratureSpec,
    ReplicateError,
    det_small,
    integrate,
    integrate_expectation,
    integrate_gram,
    integrate_unit_interval,
    mc_mean_batches,
    substream,
)


def test_quadrature_spec_validation():
    QuadratureSpec()  # defaults are valid
    with pytest.raises(ValueError):
        QuadratureSpec(rtol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(atol=-1e-12)


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
    # 1000 periods outrun the finest tanh-sinh level at a 1e-13 tolerance
    def fast_oscillation(u):
        return np.sin(2000.0 * math.pi * u)[None] ** 2

    spec = QuadratureSpec(rtol=1e-13, atol=1e-15)
    with pytest.raises(QuadratureNonConvergence) as err:
        integrate(fast_oscillation, 0.0, 1.0, spec)
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0


@pytest.mark.parametrize(
    "a,b,scale", ((-math.inf, math.inf, 1.0), (0.0, math.inf, 0.5), (-math.inf, 0.0, 0.5))
)
def test_integrate_infinite_limits_vector(a, b, scale):
    # a Gaussian and an algebraic tail share one pass
    got = integrate(lambda x: np.stack([np.exp(-x * x), 1.0 / (1.0 + x * x)]), a, b)
    np.testing.assert_allclose(got, [scale * math.sqrt(math.pi), scale * math.pi], rtol=1e-12)


def _scipy_tanhsinh(fn, a, b, spec=None):
    """integrate's stop rule on scipy's own tanh-sinh driver, as an independent oracle."""
    from scipy.integrate import tanhsinh

    spec = spec or QuadratureSpec()
    lo, hi = sorted((a, b))
    probe = next(v for v in (0.5 * (lo + hi), lo + 1.0, hi - 1.0, 0.0) if math.isfinite(v))
    k = np.asarray(fn(np.array([probe]))).shape[0]
    previous = []

    def stop_when_levels_agree(res):
        if np.min(res.maxlevel) < 0:
            return
        if previous:
            change = np.max(np.abs(res.integral - previous[-1]))
            if change <= max(spec.atol, spec.rtol * np.max(np.abs(res.integral))):
                raise StopIteration
        previous.append(np.array(res.integral))

    def integrand(x):
        # a node that rounds onto a limit contributes nothing, as in integrate
        inside = (lo < x[0]) & (x[0] < hi)
        values = np.zeros(x.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values[:, inside] = np.asarray(fn(x[0][inside]), dtype=float).reshape(k, -1)
        return values

    res = tanhsinh(integrand, np.full(k, float(a)), float(b), atol=0.0, rtol=0.0, minlevel=4,
                   preserve_shape=True, callback=stop_when_levels_agree)
    assert np.all(res.status == -4), res.status
    return res.integral


_CLOSED_FORMS = (
    # (a, b, rows of fn, their integrals)
    (0.0, 2.0, lambda x: [np.sqrt(x), np.exp(x)], [2.0 / 3.0 * 2.0**1.5, math.expm1(2.0)]),
    (-1.0, 3.0, lambda x: [x**3, 1.0 / (1.0 + x * x)], [20.0, math.atan(3.0) + math.pi / 4.0]),
    (1.0, math.inf, lambda x: [np.exp(-x), x**-2.0], [math.exp(-1.0), 1.0]),
    (0.0, math.inf, lambda x: [x * np.exp(-x), 1.0 / (1.0 + x * x)], [1.0, math.pi / 2.0]),
    (-math.inf, 0.5, lambda x: [np.exp(-x * x), np.exp(x)], [math.sqrt(math.pi) / 2.0 * (1.0 + math.erf(0.5)), math.exp(0.5)]),
    (-math.inf, -1.0, lambda x: [x**-2.0, np.exp(2.0 * x)], [1.0, math.exp(-2.0) / 2.0]),
    (-math.inf, math.inf, lambda x: [np.exp(-x * x / 2.0), 1.0 / (1.0 + x * x)], [math.sqrt(2.0 * math.pi), math.pi]),
)


@pytest.mark.parametrize("a,b,rows,want", _CLOSED_FORMS)
@pytest.mark.parametrize("reverse", (False, True))
def test_integrate_matches_scipy_tanhsinh(a, b, rows, want, reverse):
    def fn(x):
        return np.stack(rows(x))

    if reverse:
        a, b, want = b, a, [-w for w in want]
    got = integrate(fn, a, b)
    np.testing.assert_allclose(got, _scipy_tanhsinh(fn, a, b), rtol=1e-13, atol=0.0)
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
        return np.where(x > 10.0, np.nan, np.exp(-x))[None]

    with pytest.raises(IntegrandEvaluationError) as err:
        integrate(nan_beyond_ten, 0.0, math.inf)
    assert 10.0 < err.value.u < math.inf


def _reference_sums(fn, a, b, spec=QuadratureSpec()):
    """integrate's sums with one fn call per table of numerics._LEVELS; returns (integrals, tables used)."""
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    previous = None
    for used, (h, xc, w) in enumerate(numerics._LEVELS, start=1):
        x, wx = numerics._abscissae(xc, w, a, b)
        total = np.asarray(fn(x), dtype=float) @ wx * h
        if previous is not None:
            total += previous / 2
            if np.max(np.abs(total - previous)) <= max(spec.atol, spec.rtol * np.max(np.abs(total))):
                return sign * total, used
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

    def fn(x):
        calls.append(x.size)
        return np.stack(rows(x))

    want, used = _reference_sums(lambda x: np.stack(rows(x)), a, b)
    assert used == tables
    got = integrate(fn, a, b)
    assert got.tobytes() == want.tobytes()
    # levels 0..MIN_LEVEL and MIN_LEVEL + 1 share the first call; each later level costs one more
    sizes = [numerics._abscissae(xc, w, *sorted((a, b)))[0].size for _, xc, w in numerics._LEVELS[:tables]]
    assert calls == [sizes[0] + sizes[1]] + sizes[2:]


def test_unit_interval_nodes_are_built_once_and_read_only():
    for tables, unit_nodes in zip(numerics._CALLS, numerics._UNIT_CALLS):
        assert len(unit_nodes) == len(tables)
        for (_, xc, w), (x, wx) in zip(tables, unit_nodes):
            want_x, want_w = numerics._abscissae(xc, w, 0.0, 1.0)
            assert x.tobytes() == want_x.tobytes() and wx.tobytes() == want_w.tobytes()
            for arr in (x, wx):
                with pytest.raises(ValueError):
                    arr[0] = 0.5


def test_unit_interval_integrals_use_the_import_time_nodes(monkeypatch):
    def rows(x):
        return np.stack([np.sin(150.0 * x) ** 2, np.log(x) * np.log1p(-x), x])

    want, used = _reference_sums(rows, 0.0, 1.0)
    assert used > 2  # the integral runs past the first fn call

    def no_map(*args):
        raise AssertionError("a (0, 1) integral mapped its nodes again")

    monkeypatch.setattr(numerics, "_abscissae", no_map)
    assert integrate(rows, 0.0, 1.0).tobytes() == want.tobytes()
    assert integrate(rows, 1.0, 0.0).tobytes() == (-want).tobytes()


def test_integrate_reports_the_first_bad_node_in_level_order():
    coarse = numerics._abscissae(*numerics._LEVELS[0][1:], 0.0, 1.0)[0]
    fine = numerics._abscissae(*numerics._LEVELS[1][1:], 0.0, 1.0)[0]

    def nan_at(*nodes):
        return lambda x: np.where(np.isin(x, nodes), np.nan, 1.0)[None]

    # only level-5 nodes bad; two of them; a level-5 node and a coarse node that fn receives first
    for bad, first in (([fine[7]], fine[7]), ([fine[-1], fine[3]], fine[3]), ([fine[0], coarse[-1]], coarse[-1])):
        with pytest.raises(IntegrandEvaluationError) as err:
            integrate(nan_at(*bad), 0.0, 1.0)
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
    from scipy.special import zeta

    model, k_integrand = _exponential_rank_integrand()
    got = integrate_expectation(model, k_integrand)
    np.testing.assert_allclose(got, 0.4041, atol=1e-3)
    np.testing.assert_allclose(got, 2.0 * (zeta(3.0) - 1.0), rtol=1e-9)


def test_quantile_domain_weight_normalizes_for_every_family():
    # integrating g(Q(u)) == 1 over u is exact mass for any continuous parent
    from prosinfo import family_names

    for fam in family_names():
        model = make_model(fam)
        got = integrate_expectation(model, lambda x: 1.0)
        np.testing.assert_allclose(got, 1.0, atol=1e-9, err_msg=fam)


def _unit_weight(u):
    return np.ones((1, u.size))


def test_integrate_gram_closed_forms():
    from scipy.special import zeta

    normal = make_model("normal")
    unit = integrate_gram(lambda u: (normal.score_logpdf(normal.quantile(u))[None], _unit_weight(u)), 2)
    # over the open interval no tail of the scale information is lost
    np.testing.assert_allclose(unit, np.diag([1.0, 2.0]), rtol=1e-12, atol=1e-12)
    expo = make_model("exponential")

    def cdf_scores(u):
        return expo.score_cdf(expo.quantile(u))[None], (1.0 / (u * (1.0 - u)))[None]

    got = integrate_gram(cdf_scores, 1)
    np.testing.assert_allclose(got, [[0.4041]], atol=1e-4)
    np.testing.assert_allclose(got, [[2.0 * (zeta(3.0) - 1.0)]], rtol=1e-9)


def test_integrate_gram_sums_weighted_terms():
    # two terms: v = (1, u) with w = 1 and v = (u, 0) with w = 2
    def fn(u):
        v = np.stack([np.stack([np.ones_like(u), u], axis=-1), np.stack([u, 0.0 * u], axis=-1)])
        return v, np.stack([np.ones_like(u), np.full_like(u, 2.0)])

    np.testing.assert_allclose(integrate_gram(fn, 2), [[1.0 + 2.0 / 3.0, 0.5], [0.5, 1.0 / 3.0]], rtol=1e-10)


def test_integrate_gram_rejects_non_finite_integrand():
    def fn(u):
        return np.where(u > 0.5, np.nan, 1.0)[None, :, None], _unit_weight(u)

    with pytest.raises(IntegrandEvaluationError) as err:
        integrate_gram(fn, 1)
    assert err.value.u > 0.5

    def zero_weight_nan(u):
        # a term whose weight vanishes contributes nothing, finite or not
        v = np.stack([np.ones_like(u), np.full_like(u, np.nan)])[..., None]
        return v, np.stack([np.ones_like(u), np.zeros_like(u)])

    np.testing.assert_allclose(integrate_gram(zero_weight_nan, 1), [[1.0]], rtol=1e-10)


def test_integrate_gram_reports_non_convergence():
    def fast_oscillation(u):
        return np.sin(2e4 * u)[None, :, None], _unit_weight(u)

    with pytest.raises(QuadratureNonConvergence) as err:
        integrate_gram(fast_oscillation, 1)
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0


def test_integrate_gram_zero_integrand_converges():
    got = integrate_gram(lambda u: (np.zeros((1, u.size, 3)), _unit_weight(u)), 3)
    np.testing.assert_array_equal(got, np.zeros((3, 3)))


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


def test_info_matrix_arithmetic():
    a = InfoMatrix(np.diag([1.0, 2.0]))
    b = InfoMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    np.testing.assert_allclose((a + b).as_array(), [[2.0, 0.5], [0.5, 3.0]])
    np.testing.assert_allclose((a.scaled(3.0)).as_array(), np.diag([3.0, 6.0]))
    np.testing.assert_allclose(((a + b) - b).as_array(), a.as_array())
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
    # lets mc_mean_batches fork up to three processes on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _by_chunk(seed, n_chunks, fn):
    """A batch function calling fn(chunk index, count), the index read off the chunk's substream."""
    first = {substream(seed, idx).random(): idx for idx in range(n_chunks)}
    return lambda rng, count: fn(first[rng.random()], count)


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
        _assert_no_child_left()


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
        _assert_no_child_left()


def test_mc_mean_batches_forks_only_without_other_threads(three_cpus):
    def batch(rng, count):
        return np.column_stack([rng.standard_normal(count), np.full(count, float(os.getpid()))])

    reps = 6 * CHUNK_SIZE
    serial, serial_se, _ = mc_mean_batches(batch, reps=reps, seed=5)
    assert serial[1] == os.getpid()
    forked, forked_se, _ = mc_mean_batches(batch, reps=reps, seed=5, workers=2)
    assert forked[1] != os.getpid()  # a child evaluated some chunks
    assert (forked[0], forked_se[0]) == (serial[0], serial_se[0])
    _assert_no_child_left()

    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        threaded, threaded_se, _ = mc_mean_batches(batch, reps=reps, seed=5, workers=2)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    np.testing.assert_array_equal(threaded, serial)
    np.testing.assert_array_equal(threaded_se, serial_se)


def test_mc_mean_batches_kills_children_when_interrupted(three_cpus):
    parent = os.getpid()

    def batch(rng, count):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30.0)  # a child still busy when the parent leaves
        return np.zeros(count)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        mc_mean_batches(batch, reps=4 * CHUNK_SIZE, seed=1, workers=2)
    assert time.perf_counter() - start < 10.0
    _assert_no_child_left()


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
