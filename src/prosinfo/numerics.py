"""Deterministic quadrature, small symmetric-matrix algebra, and reproducible Monte Carlo.

Everything here is plumbing shared by the statistical modules.  Every integral
goes through integrate, one vectorised tanh-sinh pass (Takahasi & Mori, 1974)
over the open interval (0, 1) that integrates all rows of a vector integrand
together.  Its level loop runs in numpy over node tables built once at import
(the scheme of Bailey, Jeyabalan & Li, 2005): it sums levels 0..MIN_LEVEL = 4,
adds one level of new nodes per step, and stops when successive levels agree
to within the constant tolerances RTOL = 1e-8 and ATOL = 1e-12, or raises at
MAX_LEVEL = 10; its first stop test, at level MIN_LEVEL + 1, costs one
integrand call.  The integrand gets each node t with its exact complement
s = 1 - t, so both ends of (0, 1) resolve to about 4e-308 and an integrand
singular at 1 is treated as one singular at 0.  Expectations are evaluated on
the quantile scale, so endpoint-singular integrands such as 1/(F(1-F)) become
1/(t s).  Every integrand call gets one of a few node arrays built at import,
so node_memo can keep what callers build from them: a model's quantile scores
and a partition's block weight table.  TRIU fixes the order of a packed upper
triangle; InfoMatrix checks, and det_rows expands, p <= 3 matrices on floats.
Monte Carlo means run their fixed-size chunks by one schedule, on the calling
thread and `workers` - 1 threads (none at 1) joined before the call returns,
and are bit-identical for a fixed seed at every worker count.  A worker runs
its chunks in passes, one batch_fn call each, whose stream splits every draw
across the chunks' substreams; so a batch function draws only arrays of the
pass's length, and a replicate's value depends on its own draws alone.  The
caller's index-order merge evaluates alone each chunk no pass delivered, the
one place a failing chunk is tried again.  whole checks every integral size,
count, seed and replicate count of the library, in each caller's error class.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import math
import os
import threading
import typing as tp

import numpy as np

DEFAULT_SEED = 20240101

# Fixed batch granularity of the Monte Carlo reduction.  Results depend on this
# value, so it is a constant, not a knob.
CHUNK_SIZE = 4096
# Bound on the chunks one batch_fn call evaluates, which bounds its memory at any reps; results do not depend on it.
PASS_CHUNKS = 16

# Levels of the tanh-sinh rule in integrate; comparing levels 4 and 5 first
# keeps two coarse grids that both miss a sharp peak from agreeing.
MIN_LEVEL = 4
MAX_LEVEL = 10
# Relative and absolute tolerances on the change between successive levels,
# shared by every row of one integrate pass.  Results depend on these values,
# so they are constants, not knobs.
RTOL = 1e-8
ATOL = 1e-12


class NumericsError(Exception):
    """Base class for numerical failures; subclasses keep their constructor arguments in args, so copies rebuild them."""


class QuadratureNonConvergence(NumericsError):
    """Adaptive quadrature stopped before reaching the requested tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message, estimate, error_bound)
        self.estimate = estimate
        self.error_bound = error_bound

    def __str__(self) -> str:
        return f"{self.args[0]} (best estimate {self.estimate!r}, error bound {self.error_bound!r})"


class IntegrandEvaluationError(NumericsError):
    """The integrand returned a non-finite value at a known node u of (0, 1), a quantile-domain t."""

    def __init__(self, message: str, u: float):
        super().__init__(message, u)
        self.u = u

    def __str__(self) -> str:
        return f"{self.args[0]} at u={self.u!r}"


class ReplicateError(NumericsError):
    """A Monte Carlo replicate produced a non-finite value."""

    def __init__(self, message: str, index: int):
        super().__init__(message, index)
        self.index = index

    def __str__(self) -> str:
        return f"{self.args[0]} (replicate {self.index})"


# Rows and columns of a p x p upper triangle, row by row: every packed symmetric matrix's order.
TRIU = {p: np.triu_indices(p) for p in (1, 2, 3)}


def from_triu(p: int, tri: np.ndarray) -> np.ndarray:
    """The symmetric p x p matrix whose upper triangle, in TRIU order, is tri."""
    rows, cols = TRIU[p]
    out = np.zeros((p, p))
    out[rows, cols] = out[cols, rows] = tri
    return out


class InfoMatrix:
    """Symmetric p x p Fisher-information matrix, p in {1, 2, 3}.

    The constructor symmetrizes the input after checking it is symmetric to
    within 1e-12 relative and that diagonal entries are non-negative.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: tp.Any):
        a = np.atleast_2d(np.asarray(entries, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"InfoMatrix needs a square array, got shape {a.shape}")
        p = a.shape[0]
        if not 1 <= p <= 3:
            raise ValueError(f"InfoMatrix dimension must be 1..3, got {p}")
        r = a.tolist()  # numpy's per-call cost would dominate checks of p <= 3 entries
        if not all(math.isfinite(x) for row in r for x in row):
            raise ValueError("InfoMatrix entries must be finite")
        tol = 1e-12 * max(1.0, *(abs(x) for row in r for x in row))
        if any(abs(r[i][j] - r[j][i]) > tol for i in range(p) for j in range(i)):
            raise ValueError("InfoMatrix entries are not symmetric")
        if min(r[i][i] for i in range(p)) < -tol:
            raise ValueError("InfoMatrix diagonal entries must be non-negative")
        sym = (a + a.T) / 2.0
        sym.flags.writeable = False
        self._entries = sym

    @property
    def p(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def as_array(self) -> np.ndarray:
        return np.array(self._entries)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._entries, dtype=dtype)

    def __getitem__(self, idx):
        return self._entries[idx]

    def scaled(self, c: float) -> "InfoMatrix":
        return InfoMatrix(self._entries * float(c))

    def __repr__(self) -> str:
        return f"InfoMatrix({self._entries.tolist()!r})"


def whole(value: tp.Any, what: str, least: int | None = None, error: type[Exception] = ValueError) -> int:
    """value as an int of at least `least`: an int as given, another integral value (2.0, np.int64(2)) as its int.

    :raises error: "{what} must be an integer, got {value!r}" for a value that is not integral, whatever its type,
        or "{what} must be >= {least}, got {value}".
    """
    try:
        integral = type(value) is int or int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise error(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return int(value)


@dataclasses.dataclass(frozen=True)
class MCEstimate:
    """Point estimate with its Monte Carlo standard error.

    std_error is the ddof=1 sample standard deviation over replications divided
    by sqrt(replications).
    """

    value: float
    std_error: float
    replications: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "replications", whole(self.replications, "replications", 2))
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be non-negative")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the splittable stream (seed, *key).

    Streams with distinct keys are statistically independent and do not depend
    on creation order, which is what makes scheduling-invariant Monte Carlo
    possible.
    """
    seq = np.random.SeedSequence(entropy=whole(seed, "seed", 0), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def _level_tables() -> list[tuple[float, np.ndarray, np.ndarray]]:
    # Bailey, Jeyabalan & Li's nodes x_j = tanh(pi/2 sinh(jh)) on (-1, 1), with
    # weights pi/2 cosh(jh) / cosh^2(pi/2 sinh(jh)), in scipy's scheme: the base
    # step is the largest whose complement 1 - x stays a normal number at j = 8;
    # level 0 takes j = 0..8 with the centre, which each side counts once, at
    # half weight; each later level halves h and adds the odd j only.  Returns
    # (h, 1 - x, w): one table for levels 0..MIN_LEVEL at MIN_LEVEL's step, then
    # one per later level holding its new nodes.
    h0 = math.asinh(math.log(2.0 / (4.0 * np.finfo(float).tiny) - 1.0) / math.pi) / 8
    levels = []
    for level in range(MAX_LEVEL + 1):
        h = h0 / 2**level
        j = np.arange(9) if level == 0 else np.arange(1, 8 * 2**level + 1, 2)
        u1 = math.pi / 2 * np.cosh(j * h)
        u2 = math.pi / 2 * np.sinh(j * h)
        w = u1 / np.cosh(u2) ** 2
        if level == 0:
            w[0] /= 2
        levels.append((h, 1.0 / (np.exp(u2) * np.cosh(u2)), w))
    first = levels[: MIN_LEVEL + 1]
    xc, w = (np.concatenate([table[i] for table in first]) for i in (1, 2))
    return [(levels[MIN_LEVEL][0], xc, w)] + levels[MIN_LEVEL + 1 :]


def _unit_nodes(xc: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, s = 1 - t, weight) of table nodes xc, w over (0, 1): the upper half first, at t = 1 - xc/2, then the
    lower half at t = xc/2.  xc/2 is exact, so the lower half's t and the upper half's s are exact, and so is
    every node's distance to its end, also where t or s rounds to 1."""
    half = xc / 2
    return np.concatenate((1.0 - half, half)), np.concatenate((half, 1.0 - half)), np.concatenate((w, w)) / 2


_LEVELS = _level_tables()
_CALLS = [_LEVELS[:2]] + [[table] for table in _LEVELS[2:]]  # the tables of each fn call in integrate
_NODES = [[_unit_nodes(xc, w) for _, xc, w in tables] for tables in _CALLS]  # their (t, s, weight)
_T, _S = ([np.concatenate([nodes[i] for nodes in call]) for call in _NODES] for i in (0, 1))  # (t, s) per call
for _a in (*_T, *_S, *(a for call in _NODES for nodes in call for a in nodes)):
    _a.flags.writeable = False
_UNIT_INDEX = {id(t): i for i, t in enumerate(_T)}  # unique ids: the arrays live as long as the module

MEMO_ENTRIES = 64  # bound on the entries node_memo keeps; the largest holds a few hundred kB
_memo: dict[tuple[tp.Hashable, int], tp.Any] = {}
_memo_lock = threading.RLock()  # reentrant: a build may itself read the memo


def node_memo(key: tp.Hashable, t: np.ndarray, build: tp.Callable[[np.ndarray], tp.Any]) -> tp.Any:
    """build(t), a tuple of arrays, kept read-only under key when t is one of the node arrays t integrate passes.

    key must fix build(t) at each such t; a build may also read the complement s that integrate passed with t,
    since s is fixed by t.  Any other t (draws, a copy) goes straight to build.
    """
    index = _UNIT_INDEX.get(id(t))
    if index is None:
        return build(t)
    with _memo_lock:  # held while building, so that no build runs twice
        value = _memo.pop((key, index), None)
        if value is None:
            value = build(t)
            for a in value:
                a.flags.writeable = False
        _memo[key, index] = value  # the most recently used comes last
        while len(_memo) > MEMO_ENTRIES:
            del _memo[next(iter(_memo))]
    return value


def integrate(fn: tp.Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """The integrals over (0, 1) of every row of fn(t, s), where s = 1 - t.

    fn maps node arrays t and s, built at import, to an array of shape
    (k, len(t)).  s is the exact complement: each half of the rule reads its
    end's distance from t near 0 and from s near 1, so the upper end keeps
    nodes down to s of about 4e-308, as the lower does, though t rounds to 1
    there.  One tanh-sinh pass integrates every row: it sums all nodes of
    levels 0..MIN_LEVEL, then each later level L halves the previous sum and
    adds its new nodes, and stops when no row moved from the previous level by
    more than max(ATOL, RTOL * max |integral|).  No test can pass before level
    MIN_LEVEL + 1, so fn gets the nodes of levels 0..MIN_LEVEL + 1 in one call,
    in level order, and each later level's in one more.  The tolerance is
    shared because a row that is zero by symmetry never meets one relative to
    itself.  The change between levels bounds the coarser level's error, so
    the finer level returned is well within it.  Returns shape (k,).

    :raises QuadratureNonConvergence: MAX_LEVEL did not reach the tolerance.
    :raises IntegrandEvaluationError: fn returned a non-finite value, at the first such node in level order.
    """
    previous: np.ndarray | None = None
    change = math.inf
    for tables, nodes, t, s in zip(_CALLS, _NODES, _T, _S):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = np.asarray(fn(t, s), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            bad = ~finite.all(axis=0)
            raise IntegrandEvaluationError("integrand is not finite", u=float(t[np.argmax(bad)]))
        for (h, _, _), (level_t, _, wt) in zip(tables, nodes):
            total = values[:, : level_t.size] @ wt * h
            values = values[:, level_t.size :]
            if previous is not None:
                total += previous / 2
                change = float(np.abs(total - previous).max())
                if change <= max(ATOL, RTOL * float(np.abs(total).max())):
                    return total
            previous = total
    raise QuadratureNonConvergence("quadrature did not converge", float(np.max(np.abs(previous))), change)


# integrate_unit_interval and integrate_expectation serve only the benchmark and the tests; ROADMAP item 15
# deletes them once the benchmark calls integrate itself.


def integrate_unit_interval(fn: tp.Callable[[float], float]) -> float:
    """Integrate the scalar function fn(u) over the open unit interval (0, 1); a node whose t rounds onto 1 adds 0."""

    def row(t: np.ndarray, s: np.ndarray) -> list[list[float]]:
        return [[fn(float(v)) if v < 1.0 else 0.0 for v in t]]

    return float(integrate(row)[0])


def integrate_expectation(model: tp.Any, integrand: tp.Callable[[float], float]) -> float:
    """E[integrand(X)] for X ~ model, as the quantile-domain integral of integrand(F^{-1}(u)).

    The u-substitution makes endpoint singularities of terms like 1/(F(1-F))
    explicit as 1/(u(1-u)) and keeps all evaluation points inside the open
    support.
    """
    return integrate_unit_interval(lambda u: integrand(float(model.quantile(u))))


def det_small(m: tp.Any) -> float:
    """Closed-form determinant for p in {1, 2, 3}: det_rows of m's rows.  :raises ValueError: another shape."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.shape not in ((1, 1), (2, 2), (3, 3)):
        raise ValueError(f"det_small handles square matrices of dimension 1..3, got shape {a.shape}")
    return det_rows(a.tolist())


def det_rows(r: list[list[float]]) -> float:
    """Closed-form determinant of the p x p matrix of Python float rows r, p in {1, 2, 3}, which the caller checks.

    A determinant beyond the double range comes back as inf or nan without a warning."""
    if len(r) == 1:
        return r[0][0]
    if len(r) == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def _merge_moments(
    a: tuple[int, np.ndarray, np.ndarray], b: tuple[int, np.ndarray, np.ndarray]
) -> tuple[int, np.ndarray, np.ndarray]:
    # Chan et al. pairwise update of (count, mean, sum of squared deviations).
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = sa + sb + delta * delta * (na * nb / n)
    return n, mean, m2


class _PassStream:
    """The random stream of a pass over chunks idxs: each draw of length count is split across their substreams."""

    def __init__(self, seed: int, idxs: tp.Sequence[int], count: int):
        self.count, self._rngs = count, [substream(seed, idx) for idx in idxs]
        self.cuts = list(range(CHUNK_SIZE, count, CHUNK_SIZE))  # only the last chunk of all is short, and comes last

    def _split(self, count: int, *params: np.ndarray) -> list[tuple]:
        if count != self.count:
            raise ValueError(f"a Monte Carlo pass draws arrays of length {self.count}, not {count}")
        return list(zip(self._rngs, np.diff([0, *self.cuts, count]), *(np.split(p, self.cuts) for p in params)))

    def random(self, count: int) -> np.ndarray:
        return np.concatenate([rng.random(n) for rng, n in self._split(count)])

    def standard_normal(self, count: int) -> np.ndarray:
        return np.concatenate([rng.standard_normal(n) for rng, n in self._split(count)])

    def beta(self, a: tp.Any, b: tp.Any) -> np.ndarray:
        a, b = np.broadcast_arrays(a, b)
        return np.concatenate([rng.beta(ai, bi) for rng, _, ai, bi in self._split(len(a), a, b)])


def _threaded_chunks(evaluate: tp.Callable[..., None], n_chunks: int, k: int) -> dict[int, tuple]:
    """Moments of chunks 0..n_chunks-1, worker j of k evaluating chunks j, j+k, ... by evaluate(chunks, parts, stop).

    The caller is worker 0; the k-1 others (none at k = 1) are threads started
    here, each in a copy of the caller's context (numpy's error state
    included), and joined before this returns or raises.  A worker stops at its
    first failing pass, so a failed chunk is reported by its absence.  When the
    caller leaves by an exception, stop is set and the threads end after the
    pass they are in.
    """
    stop = threading.Event()
    shares: list[dict[int, tuple]] = [{} for _ in range(k)]

    def work(j: int) -> None:
        with contextlib.suppress(Exception):
            evaluate(range(j, n_chunks, k), shares[j], stop)

    threads: list[threading.Thread] = []
    try:
        for j in range(1, k):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work, j), name=f"mc-worker-{j}")
            thread.start()
            threads.append(thread)
        work(0)
    except BaseException:  # an interrupt, or a thread that could not start
        stop.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    return {idx: part for share in shares for idx, part in share.items()}


def mc_mean_batches(
    batch_fn: tp.Callable[[tp.Any, int], np.ndarray],
    reps: int,
    seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean and standard error of batch_fn(rng, count) -> (count, d) arrays over reps replicates.

    One substream per CHUNK_SIZE chunk keyed by (seed, chunk index).  Chunks run on
    k = min(workers, chunks, usable CPUs) workers by one schedule at every k: the
    calling thread and k-1 threads joined before this returns or raises, so
    batch_fn must be safe to call from two threads at once.  A worker evaluates
    its chunks in passes of up to PASS_CHUNKS, in index order: one batch_fn call
    whose rng splits each random(count), standard_normal(count) or beta(a, b)
    draw across the chunks' substreams, so every chunk draws what it draws
    alone.  batch_fn must draw only length-count arrays, and a replicate's
    value may depend on its own draws alone.  A worker stops at a pass that
    raises or yields a non-finite replicate.  Then one walk in index order
    merges the chunks' moments and evaluates alone each chunk no pass
    delivered, so the lowest failing chunk raises, after two evaluations.
    Neither depends on k, so the result is bit-identical at every worker count.
    Returns (means, standard errors, reps); reps, workers and seed below 2, 1 and 0 raise ValueError before any
    thread starts, as does a value that is not an integer.
    """
    reps, workers, seed = whole(reps, "reps", 2), whole(workers, "workers", 1), whole(seed, "seed", 0)

    def run_pass(idxs: tp.Sequence[int]) -> dict[int, tuple]:
        stream = _PassStream(seed, idxs, sum(min(CHUNK_SIZE, reps - idx * CHUNK_SIZE) for idx in idxs))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a non-finite replicate raises below
            values = np.asarray(batch_fn(stream, stream.count), dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != stream.count:
            raise ValueError("batch_fn returned a wrong-length batch")
        parts = {}  # each chunk's moments reduce contiguous rows of one (d, count) copy
        for idx, chunk in zip(idxs, np.split(np.ascontiguousarray(values.T), stream.cuts, axis=1)):
            bad = ~np.all(np.isfinite(chunk), axis=0)
            if np.any(bad):
                index = idx * CHUNK_SIZE + int(np.argmax(bad))
                raise ReplicateError("batch replicate returned a non-finite value", index=index)
            mean = chunk.mean(axis=1)
            parts[idx] = chunk.shape[1], mean, ((chunk - mean[:, None]) ** 2).sum(axis=1)
        return parts

    def evaluate(idxs: tp.Sequence[int], parts: dict, stop: threading.Event) -> None:
        for first in range(0, len(idxs), PASS_CHUNKS):
            if stop.is_set():
                return
            parts.update(run_pass(idxs[first : first + PASS_CHUNKS]))

    n_chunks = -(-reps // CHUNK_SIZE)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    parts = _threaded_chunks(evaluate, n_chunks, min(workers, n_chunks, cpus))
    for idx in range(n_chunks):
        part = parts[idx] if idx in parts else run_pass([idx])[idx]
        total = _merge_moments(total, part) if idx else part
    n, mean, m2 = total
    return mean, np.sqrt(m2 / (n - 1) / n), reps
