"""Fisher information of rank-ordered designs and relative efficiencies.

Two computation routes are provided for every design.  The quadrature route
runs every Fisher quantity through one information kernel,
models.score_information, the weighted score outer product

    int_0^1 sum_b w_b(t) v_b(t) v_b(t)^T dt,   v = alpha d log f + beta dF,

over the open quantile domain; the routes differ only in (alpha, beta, w):

    I_srs      alpha = 1                      w = 1
    K / n(S-1) beta = 1                       w = 1 / (t s),  s = 1 - t
    unbalanced alpha = 1, beta = gamma'/gamma w = gamma, one term per set

Complete-data PROS information is n I_srs + K; measurements-only information
integrates each set's full score, each set's gamma being its misplacement row
times its partition's block weights (densities.block_table), in one kernel call
that fi_unbalanced and fi_pros_marginal make with the runs of sets sharing a
partition; a balanced design is one run, whose rows are its misplacement
matrix.  The Monte Carlo route estimates -E[d^2 log L / dtheta^2] at simulated
draws and reports a standard error per matrix entry; it is the check the
quadrature identities are tested against.
A draw's log likelihood is log f(x) + log w(F(x)), so by the chain rule its
Hessian is d^2 log f + (w'/w) d^2 F + (w''/w - (w'/w)^2) dF dF^T, with w and
its t-derivatives at the t = F(x) that sampling.block_draws returns with x (in
closed form for a known latent rank, by densities.bernstein_series otherwise).

Relative efficiencies are determinant ratios: RE1 compares against SRS of the
same size, RE2 against an RSS benchmark.
"""

from __future__ import annotations

import dataclasses
import math
import typing as tp

import numpy as np

from . import densities, numerics, sampling
from .designs import Design, DesignError, MisplacementMatrix, alpha_entries, make_balanced_design
from .models import Model, from_standard, require_fi_regular, score_information, unit_entries

DEFAULT_REPS = 50_000


class InformationError(ValueError):
    """Inconsistent information-matrix request."""


@dataclasses.dataclass(frozen=True)
class FIResult:
    """Fisher information matrix with its provenance.

    :param matrix: the information matrix over the model's active parameters.
    :param method: "quadrature" or "mc".
    :param std_errors: per-entry Monte Carlo standard errors (mc method only).
    :param replications: Monte Carlo replication count (mc method only).
    """

    matrix: numerics.InfoMatrix
    method: str
    std_errors: np.ndarray | None = None
    replications: int | None = None
    design_label: str = ""
    model_label: str = ""

    @property
    def p(self) -> int:
        return self.matrix.p

    def det(self) -> float:
        """:raises InformationError: the determinant overflows the double range."""
        det = numerics.det_rows(self.matrix.entries.tolist())
        if not math.isfinite(det):
            raise InformationError("the determinant of the information matrix overflows the double range")
        return det


def _entries(obj: tp.Any) -> np.ndarray:
    if isinstance(obj, FIResult):
        obj = obj.matrix
    if isinstance(obj, numerics.InfoMatrix):
        return obj.entries
    return np.atleast_2d(np.asarray(obj, dtype=float))


# -- quadrature route ----------------------------------------------------------


def fisher_srs(model: Model, count: int) -> numerics.InfoMatrix:
    """Information of `count` i.i.d. observations."""
    return numerics.InfoMatrix(unit_entries(model) * numerics.whole(count, "count", 1, InformationError))


def k_matrix(model: Model, n: int, set_size: int) -> numerics.InfoMatrix:
    """Information gain n (S-1) E[(dF)(dF)^T / (F(1-F))] of one perfect PROS cycle over n i.i.d. observations."""
    require_fi_regular(model)
    n, set_size = numerics.whole(n, "n", 1, InformationError), numerics.whole(set_size, "set_size", 1, InformationError)
    if set_size == 1:
        return numerics.InfoMatrix(np.zeros((model.p, model.p)))
    gain = score_information(model, lambda t, s: (None, 1.0, (1.0 / (t * s))[None]))
    return numerics.InfoMatrix(n * (set_size - 1) * gain)


def h_matrix(model: Model, n: int, set_size: int) -> numerics.InfoMatrix:
    """Information gain of one PROS cycle over one RSS cycle with n measurements.

    Equals k_matrix scaled by (S-n)/(S-1); zero when S = n.
    """
    n, set_size = numerics.whole(n, "n", 1, InformationError), numerics.whole(set_size, "set_size", 1, InformationError)
    if set_size < n:
        raise InformationError(f"set_size={set_size} must be >= n={n}")
    if set_size == n:
        return numerics.InfoMatrix(np.zeros((model.p, model.p)))
    return numerics.InfoMatrix(k_matrix(model, n, set_size).entries * ((set_size - n) / (set_size - 1)))


def fi_pros_complete(
    model: Model,
    n: int,
    set_size: int,
    cycles: int = 1,
    method: str = "quadrature",
    reps: int = DEFAULT_REPS,
    seed: int = numerics.DEFAULT_SEED,
    workers: int = 1,
) -> FIResult:
    """Complete-data information of PROS(n, S) with N cycles: N (n I_srs + K).

    Complete data includes the latent rank of every measured unit.  The mc
    method simulates draws with their true ranks and takes chain-rule Hessians
    of the complete-data log likelihood.
    """
    require_fi_regular(model)
    try:
        design = make_balanced_design(set_size, n, cycles)
    except DesignError as e:
        raise InformationError(str(e)) from e
    n, set_size, cycles = design.n, design.set_size, design.replications
    label = f"{design.label()} complete"
    if method == "quadrature":
        info = numerics.InfoMatrix((unit_entries(model) * n + k_matrix(model, n, set_size).entries) * cycles)
        return FIResult(info, "quadrature", design_label=label, model_label=model.label())
    if method != "mc":
        raise InformationError(f"method must be 'quadrature' or 'mc', got {method!r}")
    rows = [(sp.partition, row) for sp, row in design.measured_rows()]
    return _mc_fi(model, set_size, rows, lambda _, u, t: _rank_logw_dt(set_size, u, t), reps, seed, workers, cycles,
                  label)


def fi_pros_marginal(
    model: Model,
    design: Design,
    alpha: MisplacementMatrix | None = None,
    method: str = "quadrature",
    reps: int = DEFAULT_REPS,
    seed: int = numerics.DEFAULT_SEED,
    workers: int = 1,
) -> FIResult:
    """Measurements-only information of a balanced design under misplacement alpha.

    Per cycle this is n I_srs + sum_r E[(d g_r)(d g_r)^T / g_r], with perfect
    subsetting the identity alpha: fi_unbalanced of the design's one cycle.
    """
    require_fi_regular(model)
    if not design.is_balanced:
        raise InformationError("design is unbalanced; use fi_unbalanced")
    runs = [(design.subsets, alpha_entries(alpha, design.n))]  # the sets' one run, measuring blocks 1..n in order
    return _measured_fi(model, design, runs, method, reps, seed, workers, f"{design.label()} marginal")


def fi_unbalanced(
    model: Model,
    design: Design,
    alphas: tp.Mapping[int, MisplacementMatrix | None] | None = None,
    method: str = "quadrature",
    reps: int = DEFAULT_REPS,
    seed: int = numerics.DEFAULT_SEED,
    workers: int = 1,
) -> FIResult:
    """Measurements-only information of any design, cycle i under misplacement alphas[i].

    Each measurement's marginal density is f(x) gamma(F(x)) with gamma the
    alpha-mixed block weight of its judgment set, so its information is
    int_0^1 s s^T gamma dt with score s = d log f + (gamma'/gamma) dF, summed
    over all sets and cycles, exact for any partition.
    """
    require_fi_regular(model)
    label = f"{design.label(as_unbalanced=True)} marginal"
    return _measured_fi(model, design, design.measured_runs(alphas), method, reps, seed, workers, label)


def _measured_fi(model: Model, design: Design, runs: list, method: str, reps: int, seed: int, workers: int,
                 label: str) -> FIResult:
    """The information of one measurement per set of design, summed over the sets of runs: (partition, rows) pairs
    whose rows are the sets' misplacement rows over that partition's blocks."""
    if method == "quadrature":

        def set_coefficients(t: np.ndarray, s: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
            tables = [a @ densities.block_table(design.set_size, part, t, s) for part, a in runs]
            g, gd = tables[0] if len(tables) == 1 else np.concatenate(tables, axis=1)  # one run: no copy
            return 1.0, gd / g, g

        info = numerics.InfoMatrix(score_information(model, set_coefficients) * design.replications)
        return FIResult(info, "quadrature", design_label=label, model_label=model.label())
    if method != "mc":
        raise InformationError(f"method must be 'quadrature' or 'mc', got {method!r}")
    coefs = np.concatenate([densities.rank_coefficients(design.set_size, part, a) for part, a in runs])

    def logw_dt(i: int, u: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w, w1, w2 = densities.bernstein_series(coefs[i], t)
        return w1 / w, w2 / w - (w1 / w) ** 2

    rows = [(part, row) for part, a in runs for row in a]
    return _mc_fi(model, design.set_size, rows, logw_dt, reps, seed, workers, design.replications, label)


# -- Monte Carlo machinery ------------------------------------------------------


def _rank_logw_dt(set_size: int, u: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First two t-derivatives of log b_u(t): (k - N t)/(t(1-t)) and -(k(1-t)^2 + (N-k)t^2)/(t(1-t))^2."""
    k, big_n = u - 1.0, set_size - 1.0
    tt = t * (1.0 - t)
    return (k - big_n * t) / tt, -(k * (1.0 - t) ** 2 + (big_n - k) * t * t) / (tt * tt)


def _mc_fi(
    model: Model, set_size: int, rows: tp.Sequence[tuple[tp.Any, np.ndarray]], logw_dt: tp.Callable[..., tuple],
    reps: int, seed: int, workers: int, multiplier: int, label: str,
) -> FIResult:
    """multiplier x the mean -Hessian of one draw per set of rows; logw_dt(i, u, t) is set i's (log w)', (log w)''.

    Runs on the standard member; a negative diagonal entry (too few replicates) raises numerics.NumericsError.
    """
    std = model.standard()[0]

    def batch(rng: np.random.Generator, count: int) -> np.ndarray:
        total = 0.0
        for i, (partition, row) in enumerate(rows):
            x, u, t = sampling.block_draws(std, set_size, partition, row, rng, count)
            total = total + std.neg_hessian(x, *logw_dt(i, u, t))
        return total

    means, ses, n_done = numerics.mc_mean_batches(batch, reps, seed, workers)
    info, errors = (numerics.from_triu(model.p, v) * multiplier for v in (means, ses))
    if np.diagonal(info).min() < 0.0:
        raise numerics.NumericsError(f"the Monte Carlo information has a negative diagonal entry at {n_done} replicates")
    info, errors = from_standard(model, np.stack([info, errors]))
    return FIResult(numerics.InfoMatrix(info), "mc", errors, n_done, label, model.label())


# -- efficiency and special designs ---------------------------------------------


def relative_efficiencies(fi_a: tp.Any, fi_b: tp.Any) -> float:
    """Determinant ratio det(fi_a) / det(fi_b).

    Both matrices are first scaled by the one power of two that brings fi_b's
    largest entry into [1/2, 1).  The scaling is exact and cancels in the
    ratio, so the ratio does not depend on how large or small the parameters'
    scale makes the information.

    :raises InformationError: shapes that differ or are not p x p with p in
        {1, 2, 3}, or a singular denominator (|det(fi_b)| at most 1e-300, or NaN).
    :raises OverflowError: an entry of fi_a exceeds fi_b's largest by more
        than the double range.
    :raises numerics.NumericsError: det(fi_b) is below 0, or else det(fi_a) is
        below 0 or NaN: the rounding of a nearly singular matrix's entries
        outweighs its determinant.  The message names the side.
    """
    a, b = _entries(fi_a), _entries(fi_b)
    if a.shape != b.shape or a.shape not in ((1, 1), (2, 2), (3, 3)):
        raise InformationError(f"need two p x p matrices of one p in 1..3, got shapes {a.shape} and {b.shape}")
    rows_b = b.tolist()
    exponent = -math.frexp(max(abs(x) for row in rows_b for x in row))[1]
    det_a, det_b = (numerics.det_rows([[math.ldexp(x, exponent) for x in r] for r in m]) for m in (a.tolist(), rows_b))
    if not abs(det_b) > 1e-300:
        raise InformationError("denominator information matrix is singular")
    ratio = det_a / det_b
    # the rounding of a nearly singular matrix's entries outweighs its determinant; a NaN det_b was refused above
    for side, det, value, unit in (("denominator", det_b, det_b, "with its largest entry scaled into [1/2, 1)"),
                                   ("numerator", det_a, ratio, "det(denominator)")):
        if not det >= 0.0:
            raise numerics.NumericsError(f"det({side}) = {value:.3g} {unit}: too near singular")
    return ratio


def regression_fi(
    noise_model: Model,
    covariates: tp.Sequence[float],
    n: int,
    set_size: int,
) -> tuple[numerics.InfoMatrix, numerics.InfoMatrix]:
    """SRS information and rank-design gain for straight-line regression.

    Responses follow y_i = b0 + b1 x_i + sigma Z with symmetric standardized
    noise Z; theta = (b0, b1, sigma).  Returns (I_srs, K); both are diagonal
    when the covariates are centered, which is required.

    :raises ModelError: the noise family has no regular Fisher information (uniform).
    :raises InformationError: uncentered covariates, an unsupported noise family, or n or set_size below 1.
    """
    require_fi_regular(noise_model)
    n, set_size = numerics.whole(n, "n", 1, InformationError), numerics.whole(set_size, "set_size", 1, InformationError)
    x = np.asarray(list(covariates), dtype=float)
    if x.size < 1:
        raise InformationError("at least one covariate is needed")
    if abs(x.mean()) > 1e-9 * (1.0 + float(np.max(np.abs(x)))):
        raise InformationError("covariates must be centered: subtract the mean so that x-bar = 0")
    if noise_model.param_names != ("mu", "sigma"):
        raise InformationError(
            f"noise family {noise_model.family!r} is not location-scale; "
            "regression supports symmetric location-scale noise"
        )
    noise = dataclasses.replace(noise_model, active=("mu", "sigma"))  # the noise parameters of theta, in order
    std = noise.standard()[0]
    zs = np.linspace(0.1, 4.0, 14)
    if np.max(np.abs(np.asarray(std.pdf(zs)) - np.asarray(std.pdf(-zs)))) > 1e-10:
        raise InformationError(f"noise family {noise_model.family!r} is not symmetric about 0")

    a_const, b_const = np.diagonal(unit_entries(noise))
    # C = int f^2/u and D = int z^2 f^2/u are the diagonal of the kernel with v = dF = -(f, z f), w = 1/u
    c_const, d_const = np.diagonal(score_information(noise, lambda t, s: (None, 1.0, (1.0 / t)[None])))

    k = x.size
    sx2 = float(np.mean(x * x))
    srs = numerics.InfoMatrix(np.diag([a_const, sx2 * a_const, b_const]) * (n * k))
    gain = numerics.InfoMatrix(np.diag([c_const, sx2 * c_const, d_const]) * (2.0 * k * n * (set_size - 1)))
    return srs, gain


@dataclasses.dataclass(frozen=True)
class LemmaCheck:
    """Monte Carlo sides of the rank-sum expectation identity, with its analytic value."""

    lambda0: numerics.MCEstimate
    lambda1: numerics.MCEstimate
    reference: float


def verify_lemma_identity(
    model: Model,
    design: Design,
    G: tp.Callable[[np.ndarray], np.ndarray],
    reps: int = DEFAULT_REPS,
    seed: int = numerics.DEFAULT_SEED,
    workers: int = 1,
) -> LemmaCheck:
    """Estimate E[sum_r phi_{u_r}(lambda) G(Y_r) / (lambda + (1-2 lambda) F(Y_r))].

    One replicate is one perfect cycle; phi_u(0) = u - 1 and phi_u(1) = S - u.
    Both sides equal n (S-1) E[G(X)], returned as `reference` via quadrature.

    :raises InformationError: the design's sets do not measure each block of one partition once.
    """
    n, S = design.n, design.set_size
    if sorted(sp.measured for sp in design.sets) != list(range(1, n + 1)):
        raise InformationError("the rank-sum identity needs one set measuring each block of the partition once")
    rows = [(sp.partition, row) for sp, row in design.measured_rows()]

    def g_of_quantile(t: np.ndarray, s: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(G(model.quantile(t, s)), dtype=float), t.shape)[None]

    reference = n * (S - 1) * float(numerics.integrate(g_of_quantile)[0])

    def batch(rng: np.random.Generator, count: int) -> np.ndarray:
        t0 = np.zeros(count)
        t1 = np.zeros(count)
        for partition, row in rows:
            x, u, F = sampling.block_draws(model, S, partition, row, rng, count)
            gx = np.asarray(G(x), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                t0 += np.where(u > 1, (u - 1) * gx / F, 0.0)
                t1 += np.where(u < S, (S - u) * gx / (1.0 - F), 0.0)
        return np.stack([t0, t1], axis=1)

    means, ses, done = numerics.mc_mean_batches(batch, reps, seed, workers)
    return LemmaCheck(
        lambda0=numerics.MCEstimate(float(means[0]), float(ses[0]), done),
        lambda1=numerics.MCEstimate(float(means[1]), float(ses[1]), done),
        reference=reference,
    )
