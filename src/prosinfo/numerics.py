"""Deterministic quadrature, small symmetric-matrix algebra, and reproducible Monte Carlo.

Everything here is plumbing shared by the statistical modules: expectations are
evaluated on the quantile-transformed domain so endpoint-singular integrands such
as 1/(F(1-F)) become 1/(u(1-u)), and Monte Carlo means are bit-reproducible for a
fixed seed regardless of how replicates are scheduled across workers.  Scalar
integrals use adaptive QUADPACK quadrature; every Fisher-information matrix goes
through integrate_gram, one vectorised tanh-sinh pass (Takahasi & Mori, 1974)
for all entries of a weighted score outer product.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import math
import typing as tp

import numpy as np
import scipy.integrate

DEFAULT_SEED = 20240101

# Fixed batch granularity of the Monte Carlo reduction.  Results depend on this
# value, so it is a constant, not a knob.
CHUNK_SIZE = 4096


class NumericsError(Exception):
    """Base class for numerical failures (quadrature or Monte Carlo)."""


class QuadratureNonConvergence(NumericsError):
    """Adaptive quadrature stopped before reaching the requested tolerance."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (best estimate {estimate!r}, error bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class IntegrandEvaluationError(NumericsError):
    """The integrand returned a non-finite value at a known quantile u."""

    def __init__(self, message: str, u: float):
        super().__init__(f"{message} at u={u!r}")
        self.u = u


class ReplicateError(NumericsError):
    """A Monte Carlo replicate produced a non-finite value."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (replicate {index})")
        self.index = index


@dataclasses.dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for quadrature on the unit quantile interval.

    :param rtol: Relative tolerance of both rules: QUADPACK in
        integrate_unit_interval and tanh-sinh in integrate_gram.
    :param atol: Absolute tolerance of both rules.
    :param max_subdivisions: Subdivision budget of the QUADPACK path
        (integrate_unit_interval) only; integrate_gram refines to a fixed
        finest tanh-sinh level.
    :param endpoint_clip: Half-width epsilon of the clipped domain (eps, 1-eps).
    """

    rtol: float = 1e-8
    atol: float = 1e-12
    max_subdivisions: int = 200
    endpoint_clip: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        if not (0.0 < self.endpoint_clip <= 1e-6):
            raise ValueError("endpoint_clip must lie in (0, 1e-6]")


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


def integrate_unit_interval(fn: tp.Callable[[float], float], spec: QuadratureSpec | None = None) -> float:
    """Integrate fn over the clipped unit interval (eps, 1-eps).

    :raises QuadratureNonConvergence: tolerance not reached within the budget.
    :raises IntegrandEvaluationError: fn returned NaN/inf at some u.
    """
    spec = spec or QuadratureSpec()

    def checked(u: float) -> float:
        v = fn(u)
        if not math.isfinite(v):
            raise IntegrandEvaluationError("integrand is not finite", u=float(u))
        return v

    out = scipy.integrate.quad(
        checked,
        spec.endpoint_clip,
        1.0 - spec.endpoint_clip,
        epsabs=spec.atol,
        epsrel=spec.rtol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(out) > 3:
        value, abserr = float(out[0]), float(out[1])
        # scipy's roundoff heuristics can flag piecewise-smooth integrands whose
        # reported error bound already meets the requested tolerance
        if abserr <= max(spec.atol, spec.rtol * abs(value)):
            return value
        raise QuadratureNonConvergence(f"quadrature did not converge: {out[3]}", value, abserr)
    return float(out[0])


def integrate_gram(
    fn: tp.Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    p: int,
    spec: QuadratureSpec | None = None,
) -> np.ndarray:
    """The p x p matrix int sum_b w_b(u) v_b(u) v_b(u)^T du over (eps, 1-eps).

    fn maps a 1-d array u to (v, w) of shapes (k, len(u), p) and (k, len(u));
    a term whose weight is not positive contributes nothing, so v may be
    non-finite there.  One tanh-sinh pass integrates every entry, calling fn
    once per batch of abscissae, and stops when no entry moved from the
    previous level by more than max(atol, rtol * max |entry|).  The tolerance is
    shared because an entry that is zero by symmetry never meets one relative
    to itself.  The change between levels bounds the coarser level's error, so
    the finer level returned lies well inside the tolerance.

    :raises QuadratureNonConvergence: the finest level did not reach the tolerance.
    :raises IntegrandEvaluationError: a term with positive weight is not finite.
    """
    spec = spec or QuadratureSpec()
    rows, cols = np.triu_indices(p)

    def integrand(x: np.ndarray) -> np.ndarray:
        u = np.atleast_1d(x[0])  # every entry shares the same abscissae
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v, w = (np.asarray(a, dtype=float) for a in fn(u))
            terms = np.where(w[..., None] > 0.0, w[..., None] * v[..., rows] * v[..., cols], 0.0)
        out = terms.sum(axis=0).T
        bad = ~np.all(np.isfinite(out), axis=0)
        if np.any(bad):
            raise IntegrandEvaluationError("integrand is not finite", u=float(u[np.argmax(bad)]))
        return out.reshape(x.shape)

    previous: np.ndarray | None = None
    change = math.inf

    def stop_when_levels_agree(res: tp.Any) -> None:
        nonlocal previous, change
        if np.min(res.maxlevel) < 0:  # the callback also runs before the first level
            return
        if previous is not None:
            change = float(np.max(np.abs(res.integral - previous)))
            if change <= max(spec.atol, spec.rtol * float(np.max(np.abs(res.integral)))):
                raise StopIteration
        previous = np.array(res.integral)

    # tanh-sinh's own error estimate changes with the units of the integrand and
    # certified errors of 2e-7 at S = 64, so entry tolerances of 0 leave the
    # stopping rule to the callback.  Comparing levels 4 and 5 first keeps two
    # coarse grids that both miss a sharp peak from agreeing.
    res = scipy.integrate.tanhsinh(
        integrand,
        np.full(rows.size, spec.endpoint_clip),
        1.0 - spec.endpoint_clip,
        atol=0.0,
        rtol=0.0,
        minlevel=4,
        preserve_shape=True,
        callback=stop_when_levels_agree,
    )
    if np.any(res.status != -4):
        raise QuadratureNonConvergence(
            "matrix quadrature did not converge", float(np.max(np.abs(res.integral))), change
        )
    out = np.zeros((p, p))
    out[rows, cols] = out[cols, rows] = res.integral
    return out


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


def mc_mean_batches(
    batch_fn: tp.Callable[[np.random.Generator, int], np.ndarray],
    reps: int,
    seed: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean and standard error of batch_fn(rng, count) -> (count, d) arrays over reps replicates.

    One substream per fixed-size chunk keyed by (seed, chunk index); chunks are
    merged in index order, so results are identical for any worker count.
    Returns (means, standard errors, reps) with shape (d,).
    """
    if reps < 2:
        raise ValueError("mc_mean_batches needs reps >= 2")

    def chunk(idx: int, lo: int, hi: int) -> np.ndarray:
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
        return values

    ranges = [(lo, min(lo + CHUNK_SIZE, reps)) for lo in range(0, reps, CHUNK_SIZE)]
    if workers > 1 and len(ranges) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(chunk, idx, lo, hi): idx for idx, (lo, hi) in enumerate(ranges)}
            raw = {futures[fut]: fut.result() for fut in concurrent.futures.as_completed(futures)}
        parts = [_moments_of(raw[idx]) for idx in range(len(ranges))]
    else:
        parts = [_moments_of(chunk(idx, lo, hi)) for idx, (lo, hi) in enumerate(ranges)]
    n, mean, m2 = functools.reduce(_merge_moments, parts)
    return mean, np.sqrt(m2 / (n - 1) / n), reps
