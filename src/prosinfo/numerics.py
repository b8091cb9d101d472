"""Deterministic quadrature, small symmetric-matrix algebra, and reproducible Monte Carlo.

Everything here is plumbing shared by the statistical modules.  Every integral
goes through integrate, one vectorised tanh-sinh pass (Takahasi & Mori, 1974)
over finite or infinite limits that integrates all rows of a vector integrand
together.  Its level loop runs in numpy over node tables built once at import
(the scheme of Bailey, Jeyabalan & Li, 2005): it sums levels 0..MIN_LEVEL = 4,
adds one level of new nodes per step, and stops when successive levels agree,
or raises at MAX_LEVEL = 10; its first stop test, at level MIN_LEVEL + 1, costs
one integrand call.  Expectations are evaluated on the quantile scale, over the
open interval (0, 1), so endpoint-singular integrands such as 1/(F(1-F)) become
1/(u(1-u)); integrate_gram builds every Fisher-information matrix on it as a
weighted score outer product, on nodes of (0, 1) also built once at import.
Monte Carlo means run their fixed-size chunks on up to `workers` forked
processes and are bit-identical for a fixed seed at every worker count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import pickle
import threading
import typing as tp

import numpy as np

DEFAULT_SEED = 20240101

# Fixed batch granularity of the Monte Carlo reduction.  Results depend on this
# value, so it is a constant, not a knob.
CHUNK_SIZE = 4096

# Levels of the tanh-sinh rule in integrate; comparing levels 4 and 5 first
# keeps two coarse grids that both miss a sharp peak from agreeing.
MIN_LEVEL = 4
MAX_LEVEL = 10


class NumericsError(Exception):
    """Base class for numerical failures; subclasses keep their constructor arguments in args to pickle."""


class QuadratureNonConvergence(NumericsError):
    """Adaptive quadrature stopped before reaching the requested tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message, estimate, error_bound)
        self.estimate = estimate
        self.error_bound = error_bound

    def __str__(self) -> str:
        return f"{self.args[0]} (best estimate {self.estimate!r}, error bound {self.error_bound!r})"


class IntegrandEvaluationError(NumericsError):
    """The integrand returned a non-finite value at a known abscissa u (a quantile, or x on the x-scale)."""

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


@dataclasses.dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the tanh-sinh rule in integrate.

    The rule's levels run from the constant MIN_LEVEL to the constant MAX_LEVEL;
    quantile-domain integrals run over the open interval (0, 1).

    :param rtol: Relative tolerance on the change between successive levels,
        shared by every row of one integrate pass.
    :param atol: Absolute tolerance on that change.
    """

    rtol: float = 1e-8
    atol: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("quadrature tolerances must be positive")


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
        if not np.all(np.isfinite(a)):
            raise ValueError("InfoMatrix entries must be finite")
        scale = max(float(np.max(np.abs(a))), 1.0)
        if np.max(np.abs(a - a.T)) > 1e-12 * scale:
            raise ValueError("InfoMatrix entries are not symmetric")
        if np.min(np.diag(a)) < -1e-12 * scale:
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

    def __add__(self, other: "InfoMatrix") -> "InfoMatrix":
        return InfoMatrix(self._entries + np.asarray(other))

    def __sub__(self, other: "InfoMatrix") -> "InfoMatrix":
        return InfoMatrix(self._entries - np.asarray(other))

    def scaled(self, c: float) -> "InfoMatrix":
        return InfoMatrix(self._entries * float(c))

    def __repr__(self) -> str:
        return f"InfoMatrix({self._entries.tolist()!r})"


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
        if self.replications < 2:
            raise ValueError("MCEstimate needs at least 2 replications")
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be non-negative")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the splittable stream (seed, *key).

    Streams with distinct keys are statistically independent and do not depend
    on creation order, which is what makes scheduling-invariant Monte Carlo
    possible.
    """
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
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


def _abscissae(xc: np.ndarray, w: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Table nodes 1 - xc and -1 + xc of weight w, mapped to (a, b) for a <= b, as read-only arrays.

    Infinite limits substitute x = 1/t - 1 + a on (0, 1) for b = inf, its reflection
    for a = -inf, and t/(1 - t^2) on (-1, 1) for both.  Nodes that round onto a limit
    of t, or whose x or weight is not finite, are dropped.
    """
    finite_a, finite_b = math.isfinite(a), math.isfinite(b)
    lo, hi = (a, b) if finite_a and finite_b else (0.0, 1.0) if finite_a or finite_b else (-1.0, 1.0)
    half = (hi - lo) / 2
    t = np.concatenate((hi - half * xc, lo + half * xc))
    wt = np.concatenate((w, w)) * half
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not (finite_a or finite_b):
            x, wt = t / (1.0 - t * t), wt * (1.0 + t * t) / (1.0 - t * t) ** 2
        elif not finite_b:
            x, wt = 1.0 / t - 1.0 + a, wt / t / t
        elif not finite_a:
            x, wt = b + 1.0 - 1.0 / t, wt / t / t
        else:
            x = t
    keep = (lo < t) & (t < hi) & np.isfinite(x) & (0.0 < wt) & (wt < math.inf)
    x, wt = x[keep], wt[keep]
    x.flags.writeable = wt.flags.writeable = False
    return x, wt


_LEVELS = _level_tables()
_CALLS = [_LEVELS[:2]] + [[table] for table in _LEVELS[2:]]  # the tables of each fn call in integrate
_UNIT_CALLS = [[_abscissae(xc, w, 0.0, 1.0) for _, xc, w in tables] for tables in _CALLS]  # their (0, 1) nodes


def integrate(
    fn: tp.Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> np.ndarray:
    """The integrals over (a, b) of every row of fn; either limit may be infinite.

    fn maps a 1-d array x to an array of shape (k, len(x)), and over (0, 1) x
    holds nodes built at import.  One tanh-sinh pass integrates every row: it
    sums all nodes of levels 0..MIN_LEVEL, then each later level L halves the
    previous sum and adds its new nodes, and stops when no row moved from the
    previous level by more than max(atol, rtol * max |integral|).  No test can
    pass before level MIN_LEVEL + 1, so fn gets the nodes of levels
    0..MIN_LEVEL + 1 in one call, in level order, and each later level's in one
    more.  The tolerance is shared because a row that is zero by symmetry never
    meets one relative to itself.  The change between levels bounds the coarser
    level's error, so the finer level returned is well within it.  Returns shape (k,).

    :raises QuadratureNonConvergence: MAX_LEVEL did not reach the tolerance.
    :raises IntegrandEvaluationError: fn returned a non-finite value at a node of positive weight,
        the first one in level order.
    """
    spec = spec or QuadratureSpec()
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    previous: np.ndarray | None = None
    change = math.inf
    for tables, unit_nodes in zip(_CALLS, _UNIT_CALLS):
        nodes = unit_nodes if (a, b) == (0.0, 1.0) else [_abscissae(xc, w, a, b) for _, xc, w in tables]
        x = np.concatenate([level_x for level_x, _ in nodes])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = np.asarray(fn(x), dtype=float)
        bad = ~np.all(np.isfinite(values), axis=0)
        if np.any(bad):
            raise IntegrandEvaluationError("integrand is not finite", u=float(x[np.argmax(bad)]))
        for (h, _, _), (level_x, wx) in zip(tables, nodes):
            total = values[:, : level_x.size] @ wx * h
            values = values[:, level_x.size :]
            if previous is not None:
                total += previous / 2
                change = float(np.max(np.abs(total - previous)))
                if change <= max(spec.atol, spec.rtol * float(np.max(np.abs(total)))):
                    return sign * total
            previous = total
    raise QuadratureNonConvergence("quadrature did not converge", float(np.max(np.abs(previous))), change)


def integrate_unit_interval(fn: tp.Callable[[float], float], spec: QuadratureSpec | None = None) -> float:
    """Integrate the scalar function fn over the open unit interval (0, 1)."""

    def row(u: np.ndarray) -> list[list[float]]:
        return [[fn(float(v)) for v in u]]

    return float(integrate(row, 0.0, 1.0, spec)[0])


def integrate_gram(
    fn: tp.Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    p: int,
    spec: QuadratureSpec | None = None,
) -> np.ndarray:
    """The p x p matrix int sum_b w_b(u) v_b(u) v_b(u)^T du over the open interval (0, 1).

    fn maps a 1-d array u to (v, w) of shapes (k, len(u), p) and (k, len(u));
    a term whose weight is not positive contributes nothing, so v may be
    non-finite there.  The p(p+1)/2 distinct entries are the rows of one
    integrate pass, under its shared tolerance.

    :raises QuadratureNonConvergence: the finest level did not reach the tolerance.
    :raises IntegrandEvaluationError: a term with positive weight is not finite.
    """
    rows, cols = TRIU[p]

    def entries(u: np.ndarray) -> np.ndarray:
        v, w = (np.asarray(a, dtype=float) for a in fn(u))
        terms = np.where(w[..., None] > 0.0, w[..., None] * v[..., rows] * v[..., cols], 0.0)
        return terms.sum(axis=0).T

    return from_triu(p, integrate(entries, 0.0, 1.0, spec))


def integrate_expectation(
    model: tp.Any,
    integrand: tp.Callable[[float], float],
    spec: QuadratureSpec | None = None,
) -> float:
    """E[integrand(X)] for X ~ model, as the quantile-domain integral of integrand(F^{-1}(u)).

    The u-substitution makes endpoint singularities of terms like 1/(F(1-F))
    explicit as 1/(u(1-u)) and keeps all evaluation points inside the open
    support.
    """
    return integrate_unit_interval(lambda u: integrand(float(model.quantile(u))), spec)


def det_small(m: tp.Any) -> float:
    """Closed-form determinant for p in {1, 2, 3}."""
    a = np.asarray(m, dtype=float)
    a = np.atleast_2d(a)
    p = a.shape[0]
    if a.shape != (p, p) or p not in (1, 2, 3):
        raise ValueError(f"det_small handles square matrices of dimension 1..3, got shape {a.shape}")
    if p == 1:
        return float(a[0, 0])
    if p == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
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


def _moments_of(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    n = values.shape[0]
    mean = values.mean(axis=0)
    m2 = ((values - mean) ** 2).sum(axis=0)
    return n, mean, m2


def _forked_chunks(
    chunk: tp.Callable[[int], tuple[int, np.ndarray, np.ndarray]], n_chunks: int, k: int
) -> dict[int, tuple[int, np.ndarray, np.ndarray]]:
    """Moments of chunks 0..n_chunks-1, process j of k evaluating chunks j, j+k, ... in index order.

    Each of the k-1 forked children pickles the moments of its chunks before its
    first failing one down a pipe and leaves by os._exit; the parent also stops
    at its own first failure, so a failed chunk is reported by its absence.
    Every child is killed and reaped on the way out, also when the parent raises.
    """
    import signal  # on first use, so that `import prosinfo` does not load it

    readers: dict[int, tp.BinaryIO] = {}  # child pid -> read end of its pipe
    parts: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
    try:
        for j in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with contextlib.suppress(Exception):
                        for idx in range(j, n_chunks, k):
                            parts[idx] = chunk(idx)
                    with open(w, "wb") as pipe:
                        pickle.dump(parts, pipe)
                finally:
                    os._exit(0)
            os.close(w)
            readers[pid] = open(r, "rb")
        with contextlib.suppress(Exception):
            for idx in range(0, n_chunks, k):
                parts[idx] = chunk(idx)
        for reader in readers.values():
            with contextlib.suppress(EOFError, pickle.UnpicklingError):  # a child that died sent nothing
                parts.update(pickle.load(reader))
    finally:
        for pid, reader in readers.items():
            reader.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return parts


def mc_mean_batches(
    batch_fn: tp.Callable[[np.random.Generator, int], np.ndarray],
    reps: int,
    seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean and standard error of batch_fn(rng, count) -> (count, d) arrays over reps replicates.

    One substream per CHUNK_SIZE chunk keyed by (seed, chunk index).  Chunks run on
    k = min(workers, chunks, usable CPUs) processes when k > 1, os.fork exists and
    no other Python thread is alive (forking while one holds a lock can deadlock
    the child); chunks no process delivered are evaluated here, so a failing
    chunk raises as at workers=1.  Moments merge in index order, so the result is
    bit-identical at every worker count.  Returns (means, standard errors, reps).
    """
    if reps < 2:
        raise ValueError("mc_mean_batches needs reps >= 2")
    if workers < 1:
        raise ValueError("mc_mean_batches needs workers >= 1")

    def chunk(idx: int) -> tuple[int, np.ndarray, np.ndarray]:
        lo, hi = idx * CHUNK_SIZE, min((idx + 1) * CHUNK_SIZE, reps)
        values = np.asarray(batch_fn(substream(seed, idx), hi - lo), dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != hi - lo:
            raise ValueError("batch_fn returned a wrong-length batch")
        bad = ~np.all(np.isfinite(values), axis=1)
        if np.any(bad):
            raise ReplicateError(
                "batch replicate returned a non-finite value", index=lo + int(np.argmax(bad))
            )
        return _moments_of(values)

    n_chunks = -(-reps // CHUNK_SIZE)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    k = min(workers, n_chunks, cpus)
    forked = k > 1 and hasattr(os, "fork") and threading.active_count() == 1
    parts = _forked_chunks(chunk, n_chunks, k) if forked else {}
    moments = [parts[idx] if idx in parts else chunk(idx) for idx in range(n_chunks)]
    n, mean, m2 = functools.reduce(_merge_moments, moments)
    return mean, np.sqrt(m2 / (n - 1) / n), reps
