"""Fisher information of rank-ordered designs and relative efficiencies.

Two computation routes are provided for every design.  The quadrature route
uses one information kernel, numerics.integrate_gram: every Fisher quantity is
a quantile-domain integral of a weighted score outer product

    int_0^1 sum_b w_b(t) v_b(t) v_b(t)^T dt,

and the routes differ only in the scores v and weights w they hand it:

    I_srs      v = d log f                          w = 1
    K / n(S-1) v = dF                               w = 1 / (t (1-t))
    marginal   v = (g_r' / g_r) dF, one term per r  w = g_r
    unbalanced v = d log f + (gamma' / gamma) dF    w = gamma, one term per set

Complete-data PROS information is n I_srs + K; the marginal information of a
balanced design with misplacement weights g_r adds the kernel to n I_srs; an
unbalanced design integrates each set's full score directly.  The Monte Carlo
route estimates -E[d^2 log L / dtheta^2] at simulated draws and reports a
standard error per matrix entry; it is the check the quadrature identities are
tested against.  A draw's log likelihood is log f(x) + log w(F(x)), so by the
chain rule its Hessian is d^2 log f + (w'/w) d^2 F + (w''/w - (w'/w)^2) dF dF^T:
w and its t-derivatives are evaluated once per draw (in closed form for a known
latent rank, by densities.bernstein_series for a misplacement mixture), and
only the analytic scores are differenced in the parameters.

Relative efficiencies are determinant ratios: RE1 compares against SRS of the
same size, RE2 against an RSS benchmark.
"""

from __future__ import annotations

import dataclasses
import typing as tp

import numpy as np

from . import densities, numerics, sampling
from .designs import (
    Design,
    DesignError,
    MisplacementMatrix,
    UnbalancedDesign,
    identity_alpha,
    make_balanced_design,
)
from .models import Model, require_fi_regular

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
        return numerics.det_small(self.matrix)


def _entries(obj: tp.Any) -> np.ndarray:
    if isinstance(obj, FIResult):
        return obj.matrix.as_array()
    return np.atleast_2d(np.asarray(obj, dtype=float))


def _matrix_from_tri(p: int, tri: np.ndarray) -> np.ndarray:
    out = np.zeros((p, p))
    rows, cols = np.triu_indices(p)
    out[rows, cols] = out[cols, rows] = tri
    return out


# -- quadrature route ----------------------------------------------------------


def fisher_srs(model: Model, count: int, spec: numerics.QuadratureSpec | None = None) -> numerics.InfoMatrix:
    """Information of `count` i.i.d. observations."""
    if count < 1:
        raise InformationError(f"count must be >= 1, got {count}")
    return model.fisher_srs_unit(spec).scaled(count)


def k_matrix(
    model: Model, n: int, set_size: int, spec: numerics.QuadratureSpec | None = None
) -> numerics.InfoMatrix:
    """Information gain of one perfect PROS cycle over n i.i.d. observations.

    n (S-1) E[(dF)(dF)^T / (F(1-F))]: the information kernel with v = dF and,
    on the quantile domain, w = 1/(t(1-t)).
    """
    require_fi_regular(model)
    if set_size < 1 or n < 1:
        raise InformationError("n and set_size must be >= 1")
    p = model.p
    if set_size == 1:
        return numerics.InfoMatrix(np.zeros((p, p)))

    def cdf_scores(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return model.score_cdf(model.quantile(u))[None], (1.0 / (u * (1.0 - u)))[None]

    return numerics.InfoMatrix(n * (set_size - 1) * numerics.integrate_gram(cdf_scores, p, spec))


def h_matrix(
    model: Model, n: int, set_size: int, spec: numerics.QuadratureSpec | None = None
) -> numerics.InfoMatrix:
    """Information gain of one PROS cycle over one RSS cycle with n measurements.

    Equals k_matrix scaled by (S-n)/(S-1); zero when S = n.
    """
    if set_size < n:
        raise InformationError(f"set_size={set_size} must be >= n={n}")
    p = model.p
    if set_size == n:
        return numerics.InfoMatrix(np.zeros((p, p)))
    return k_matrix(model, n, set_size, spec).scaled((set_size - n) / (set_size - 1))


def fi_pros_complete(
    model: Model,
    n: int,
    set_size: int,
    cycles: int = 1,
    method: str = "quadrature",
    reps: int = DEFAULT_REPS,
    seed: int = numerics.DEFAULT_SEED,
    workers: int = 1,
    spec: numerics.QuadratureSpec | None = None,
) -> FIResult:
    """Complete-data information of PROS(n, S) with N cycles: N (n I_srs + K).

    Complete data includes the latent rank of every measured unit.  The mc
    method simulates draws with their true ranks and takes chain-rule Hessians
    of the complete-data log likelihood.
    """
    require_fi_regular(model)
    if cycles < 1:
        raise InformationError(f"cycles must be >= 1, got {cycles}")
    label = f"PROS(n={n}, S={set_size}, N={cycles}) complete"
    if method == "quadrature":
        per_cycle = model.fisher_srs_unit(spec).scaled(n) + k_matrix(model, n, set_size, spec)
        return FIResult(
            matrix=per_cycle.scaled(cycles),
            method="quadrature",
            design_label=label,
            model_label=model.label(),
        )
    if method != "mc":
        raise InformationError(f"method must be 'quadrature' or 'mc', got {method!r}")
    try:
        blocks = make_balanced_design(set_size, n, cycles).subsets
    except DesignError as e:
        raise InformationError(str(e)) from e
    alpha = identity_alpha(n)

    def batch(rng: np.random.Generator, count: int) -> np.ndarray:
        total = 0.0
        for r in range(1, n + 1):
            x, u = sampling.block_draws(model, set_size, blocks, alpha.row(r), rng, count)
            total = total + _neg_hessian(model, x, *_rank_logw_dt(set_size, u, model.cdf(x)))
        return total

    return _mc_fi(model, batch, reps, seed, workers, cycles, label)


def fi_pros_marginal(
    model: Model,
    design: Design,
    alpha: MisplacementMatrix | None = None,
    method: str = "quadrature",
    reps: int = DEFAULT_REPS,
    seed: int = numerics.DEFAULT_SEED,
    workers: int = 1,
    spec: numerics.QuadratureSpec | None = None,
) -> FIResult:
    """Measurements-only information of a balanced design under misplacement alpha.

    Per cycle this is n I_srs + sum_r E[(d g_r)(d g_r)^T / g_r]; perfect
    subsetting is the identity alpha.  The decomposition requires the balanced
    property sum_r g_r = n; unbalanced partitions go through fi_unbalanced.
    """
    require_fi_regular(model)
    if not design.is_balanced:
        raise InformationError("design is unbalanced; use fi_unbalanced")
    alpha = alpha if alpha is not None else identity_alpha(design.n)
    if alpha.n != design.n:
        raise DesignError(f"misplacement matrix is {alpha.n}x{alpha.n}, design has {design.n} subsets")
    label = f"{design.label()} marginal"
    if method != "quadrature":
        # the Monte Carlo route needs no decomposition: it is the unbalanced one
        fi = fi_unbalanced(
            model, UnbalancedDesign.from_design(design), {1: alpha}, method, reps, seed, workers, spec
        )
        return dataclasses.replace(fi, design_label=label)
    coefs = np.stack([densities.rank_coefficients(design.set_size, design.subsets, row) for row in alpha.entries])

    def tilted_cdf_scores(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g, gd, _ = densities.bernstein_series(coefs, u)
        return (gd / g)[..., None] * model.score_cdf(model.quantile(u)), g

    gain = numerics.InfoMatrix(numerics.integrate_gram(tilted_cdf_scores, model.p, spec))
    per_cycle = model.fisher_srs_unit(spec).scaled(design.n) + gain
    return FIResult(
        matrix=per_cycle.scaled(design.cycles),
        method="quadrature",
        design_label=label,
        model_label=model.label(),
    )


def fi_unbalanced(
    model: Model,
    ud: UnbalancedDesign,
    alphas: tp.Mapping[int, MisplacementMatrix] | None = None,
    method: str = "quadrature",
    reps: int = DEFAULT_REPS,
    seed: int = numerics.DEFAULT_SEED,
    workers: int = 1,
    spec: numerics.QuadratureSpec | None = None,
) -> FIResult:
    """Measurements-only information of an unbalanced design.

    Each measurement's marginal density is f(x) gamma(F(x)) with gamma the
    alpha-mixed block weight of its judgment set, so its information is the
    integral of the score outer product

        int_0^1 s(t) s(t)^T gamma(t) dt,
        s(t) = d log f + (gamma'(t) / gamma(t)) dF,

    summed over all sets and cycles: the information kernel with
    v = d log f + (gamma'/gamma) dF and w = gamma.  This is exact for any
    partition; for balanced partitions it coincides with the fi_pros_marginal
    decomposition.
    """
    require_fi_regular(model)
    label = f"{ud.label()} marginal"
    resolved: list[tuple[tuple[tuple[int, ...], ...], np.ndarray]] = []
    for i in ud.cycle_ids:
        a = alphas.get(i) if alphas is not None else None
        alpha = a if a is not None else identity_alpha(ud.n_subsets(i))
        if alpha.n != ud.n_subsets(i):
            raise DesignError(
                f"cycle {i} needs a {ud.n_subsets(i)}x{ud.n_subsets(i)} misplacement matrix, "
                f"got {alpha.n}x{alpha.n}"
            )
        for sp in ud.sets_in_cycle(i):
            resolved.append((sp.partition, alpha.row(sp.measured)))
    coefs = np.stack([densities.rank_coefficients(ud.set_size, blocks, row) for blocks, row in resolved])

    if method == "quadrature":

        def set_scores(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            g, gd, _ = densities.bernstein_series(coefs, u)
            x = model.quantile(u)
            return model.score_logpdf(x) + (gd / g)[..., None] * model.score_cdf(x), g

        total = numerics.integrate_gram(set_scores, model.p, spec)
        return FIResult(
            matrix=numerics.InfoMatrix(total * ud.replications),
            method="quadrature",
            design_label=label,
            model_label=model.label(),
        )
    if method != "mc":
        raise InformationError(f"method must be 'quadrature' or 'mc', got {method!r}")

    def batch(rng: np.random.Generator, count: int) -> np.ndarray:
        total = 0.0
        for (blocks, row), c in zip(resolved, coefs):
            x, _u = sampling.block_draws(model, ud.set_size, blocks, row, rng, count)
            w, w1, w2 = densities.bernstein_series(c, model.cdf(x))
            total = total + _neg_hessian(model, x, w1 / w, w2 / w - (w1 / w) ** 2)
        return total

    return _mc_fi(model, batch, reps, seed, workers, ud.replications, label)


# -- Monte Carlo machinery ------------------------------------------------------


def _rank_logw_dt(set_size: int, u: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First two t-derivatives of log b_u(t): (k - N t)/(t(1-t)) and -(k(1-t)^2 + (N-k)t^2)/(t(1-t))^2."""
    k, big_n = u - 1.0, set_size - 1.0
    tt = t * (1.0 - t)
    return (k - big_n * t) / tt, -(k * (1.0 - t) ** 2 + (big_n - k) * t * t) / (tt * tt)


def _neg_hessian(model: Model, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """-(d^2/dtheta^2) of log f(x; theta) + log w(F(x; theta)) at each draw, by the chain rule.

    a and b are the first two t-derivatives of log w at t = F(x; theta); the
    Hessian is d^2 log f + a d^2 F + b dF dF^T.  dF comes from the analytic
    score_cdf; d^2 log f and d^2 F are central differences of the analytic
    scores in each parameter, symmetrized, so the weight is evaluated once per
    draw.  Returns the upper-triangle entries, shape (len(x), p(p+1)/2).
    """
    p = model.p
    d_cdf = model.score_cdf(x)
    hess = (b[:, None, None] * d_cdf[:, :, None]) * d_cdf[:, None, :]
    for k, name in enumerate(model.active):
        h = 1e-4 * max(abs(model.value(name)), 1.0)
        up = model.with_params(**{name: model.value(name) + h})
        down = model.with_params(**{name: model.value(name) - h})
        hess[:, :, k] += (up.score_logpdf(x) - down.score_logpdf(x)) / (2.0 * h)
        hess[:, :, k] += a[:, None] * (up.score_cdf(x) - down.score_cdf(x)) / (2.0 * h)
    rows, cols = np.triu_indices(p)
    return -0.5 * (hess[:, rows, cols] + hess[:, cols, rows])


def _mc_fi(
    model: Model,
    batch: tp.Callable[[np.random.Generator, int], np.ndarray],
    reps: int,
    seed: int,
    workers: int,
    multiplier: int,
    label: str,
) -> FIResult:
    means, ses, n_done = numerics.mc_mean_batches(batch, reps, seed, workers)
    p = model.p
    matrix = numerics.InfoMatrix(_matrix_from_tri(p, means) * multiplier)
    std_errors = _matrix_from_tri(p, ses) * multiplier
    return FIResult(
        matrix=matrix,
        method="mc",
        std_errors=std_errors,
        replications=n_done,
        design_label=label,
        model_label=model.label(),
    )


# -- efficiency and special designs ---------------------------------------------


def relative_efficiencies(fi_a: tp.Any, fi_b: tp.Any) -> float:
    """Determinant ratio det(fi_a) / det(fi_b).

    :raises InformationError: dimension mismatch or a singular denominator.
    """
    a, b = _entries(fi_a), _entries(fi_b)
    if a.shape != b.shape:
        raise InformationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    det_b = numerics.det_small(b)
    if not abs(det_b) > 1e-300:
        raise InformationError("denominator information matrix is singular")
    return numerics.det_small(a) / det_b


def regression_fi(
    noise_model: Model,
    covariates: tp.Sequence[float],
    n: int,
    set_size: int,
    spec: numerics.QuadratureSpec | None = None,
) -> tuple[numerics.InfoMatrix, numerics.InfoMatrix]:
    """SRS information and rank-design gain for straight-line regression.

    Responses follow y_i = b0 + b1 x_i + sigma Z with symmetric standardized
    noise Z; theta = (b0, b1, sigma).  Returns (I_srs, K); both are diagonal
    when the covariates are centered, which is required.

    :raises InformationError: uncentered covariates or an unsupported noise family.
    """
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
    std = Model(noise_model.family, (0.0, 1.0), ("mu", "sigma"))
    zs = np.linspace(0.1, 4.0, 14)
    if np.max(np.abs(np.asarray(std.pdf(zs)) - np.asarray(std.pdf(-zs)))) > 1e-10:
        raise InformationError(f"noise family {noise_model.family!r} is not symmetric about 0")

    unit = std.fisher_srs_unit(spec)
    a_const = float(unit[0, 0])
    b_const = float(unit[1, 1])

    def density_terms(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = std.quantile(u)
        f = std.pdf(z)
        return np.stack([f, z * f], axis=-1)[None], (1.0 / u)[None]

    # C = int f^2/u and D = int z^2 f^2/u are the diagonal of one kernel
    cd = numerics.integrate_gram(density_terms, 2, spec)
    c_const, d_const = float(cd[0, 0]), float(cd[1, 1])

    sigma = noise_model.value("sigma")
    k = x.size
    sx2 = float(np.mean(x * x))
    srs = numerics.InfoMatrix(np.diag([a_const, sx2 * a_const, b_const]) * (n * k / sigma**2))
    gain = numerics.InfoMatrix(
        np.diag([c_const, sx2 * c_const, d_const]) * (2.0 * k * n * (set_size - 1) / sigma**2)
    )
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
    spec: numerics.QuadratureSpec | None = None,
) -> LemmaCheck:
    """Estimate E[sum_r phi_{u_r}(lambda) G(Y_r) / (lambda + (1-2 lambda) F(Y_r))].

    One replicate is one perfect cycle; phi_u(0) = u - 1 and phi_u(1) = S - u.
    Both sides equal n (S-1) E[G(X)], returned as `reference` via quadrature.
    """
    n, S = design.n, design.set_size
    alpha = identity_alpha(n)
    reference = n * (S - 1) * numerics.integrate_expectation(
        model, lambda v: float(np.asarray(G(np.asarray(v)))), spec
    )

    def batch(rng: np.random.Generator, count: int) -> np.ndarray:
        t0 = np.zeros(count)
        t1 = np.zeros(count)
        for r in range(1, n + 1):
            x, u = sampling.block_draws(model, S, design.subsets, alpha.row(r), rng, count)
            F = np.asarray(model.cdf(x), dtype=float)
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
