"""Densities induced by rank-ordered set designs.

Everything is built from the Bernstein weights

    b_u(t) = C(S-1, u-1) t^(u-1) (1-t)^(S-u),   u = 1..S,

because the u-th order statistic of a size-S sample has density
f^(u:S)(x) = S b_u(F(x)) f(x).  A measured unit judged into rank block d_r then
has density f(x) w(F(x)) where w(t) = (S/m) sum_{u in d_r} b_u(t), and
misplacement replaces w by an alpha-weighted mixture of the per-block weights.
Weight functions live on the quantile domain t in [0,1], where they are
distribution-free; the *_pdf operations compose them with a model's f and F.
All binomial coefficients go through lgamma so set sizes up to 64 evaluate
without overflow.
"""

from __future__ import annotations

import math
import typing as tp

import numpy as np
import scipy.special as sps

from .designs import Design, DesignError, MisplacementMatrix, UnbalancedDesign
from .models import Model

FloatArray = tp.Union[float, np.ndarray]
Blocks = tp.Sequence[tp.Sequence[int]]


class DensityError(ValueError):
    """Invalid rank, index, or evaluation point for a design-induced density."""


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _bern_kn(k: int, n: int, t: np.ndarray) -> np.ndarray:
    """Degree-n Bernstein basis polynomial C(n,k) t^k (1-t)^(n-k); zero outside 0<=k<=n."""
    if k < 0 or k > n:
        return np.zeros_like(t)
    logc = _log_comb(n, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(logc + sps.xlogy(k, t) + sps.xlogy(n - k, 1.0 - t))
    return out


def bernstein(set_size: int, u: int, t: FloatArray) -> FloatArray:
    """b_u(t) for rank u in a size-S set; the binomial pmf term of f^(u:S)."""
    if not 1 <= u <= set_size:
        raise DensityError(f"rank must lie in 1..{set_size}, got {u}")
    ta = np.asarray(t, dtype=float)
    out = _bern_kn(u - 1, set_size - 1, ta)
    return out if np.ndim(t) else float(out)


def bernstein_many(set_size: int, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """b_u(t) evaluated elementwise for an integer rank array u."""
    ua = np.asarray(u, dtype=int)
    if ua.size and (ua.min() < 1 or ua.max() > set_size):
        raise DensityError(f"ranks must lie in 1..{set_size}")
    ta = np.asarray(t, dtype=float)
    logc = np.array([_log_comb(set_size - 1, k) for k in range(set_size)])
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(logc[ua - 1] + sps.xlogy(ua - 1, ta) + sps.xlogy(set_size - ua, 1.0 - ta))
    return out


def bernstein_dt(set_size: int, u: int, t: FloatArray) -> FloatArray:
    """d b_u(t) / dt via the degree-reduction identity; exact at the endpoints."""
    if not 1 <= u <= set_size:
        raise DensityError(f"rank must lie in 1..{set_size}, got {u}")
    ta = np.asarray(t, dtype=float)
    n = set_size - 1
    out = n * (_bern_kn(u - 2, n - 1, ta) - _bern_kn(u - 1, n - 1, ta)) if n else np.zeros_like(ta)
    return out if np.ndim(t) else float(out)


def block_weight(set_size: int, ranks: tp.Sequence[int], t: FloatArray) -> FloatArray:
    """Quantile-domain density (S/m) sum_{u in ranks} b_u(t) of a measured block."""
    ta = np.asarray(t, dtype=float)
    acc = np.zeros_like(ta)
    for u in ranks:
        acc += bernstein(set_size, u, ta)
    acc *= set_size / len(ranks)
    return acc if np.ndim(t) else float(acc)


def block_weight_dt(set_size: int, ranks: tp.Sequence[int], t: FloatArray) -> FloatArray:
    ta = np.asarray(t, dtype=float)
    acc = np.zeros_like(ta)
    for u in ranks:
        acc += bernstein_dt(set_size, u, ta)
    acc *= set_size / len(ranks)
    return acc if np.ndim(t) else float(acc)


def alpha_weight(set_size: int, blocks: Blocks, alpha_row: np.ndarray, t: FloatArray) -> FloatArray:
    """Misplacement mixture sum_h alpha_row[h] * block_weight(blocks[h], t)."""
    return _alpha_mix(block_weight, set_size, blocks, alpha_row, t)


def alpha_weight_dt(set_size: int, blocks: Blocks, alpha_row: np.ndarray, t: FloatArray) -> FloatArray:
    return _alpha_mix(block_weight_dt, set_size, blocks, alpha_row, t)


def _alpha_mix(fn: tp.Callable, set_size: int, blocks: Blocks, row: np.ndarray, t: FloatArray) -> FloatArray:
    _check_row(blocks, row)
    ta = np.asarray(t, dtype=float)
    acc = np.zeros_like(ta)
    for a_h, ranks in zip(row, blocks):
        if a_h:
            acc += a_h * np.asarray(fn(set_size, ranks, ta))
    return acc if np.ndim(t) else float(acc)


def _check_row(blocks: Blocks, alpha_row: np.ndarray) -> None:
    if len(alpha_row) != len(blocks):
        raise DensityError(f"misplacement row has {len(alpha_row)} entries for {len(blocks)} blocks")


def rank_coefficients(set_size: int, blocks: Blocks, alpha_row: np.ndarray) -> np.ndarray:
    """Coefficients c_u = sum_h alpha_row[h] (S/m_h) 1[u in blocks[h]] with alpha_weight = sum_u c_u b_u."""
    _check_row(blocks, alpha_row)
    c = np.zeros(set_size)
    for a_h, ranks in zip(alpha_row, blocks):
        c[np.asarray(ranks) - 1] += a_h * set_size / len(ranks)
    return c


def bernstein_series(coef: np.ndarray, t: FloatArray) -> tuple[np.ndarray, ...]:
    """w(t) = sum_u coef[..., u-1] b_u(t) and its first two t-derivatives.

    coef holds rank coefficients c_1..c_S on its last axis (see
    rank_coefficients); leading axes are independent series, and each result
    has shape coef.shape[:-1] + t.shape.  The k-th derivative is the degree
    S-1-k series of the k-th differences of c, times (S-1)!/(S-1-k)!.  Only the
    window [lo, hi] of coefficients non-zero in some row is summed, by Horner's
    rule in t/(1-t) after factoring out t^lo (1-t)^(m-lo) for t <= 1/2, and in
    (1-t)/t after t^hi (1-t)^(m-hi) above: the cost is linear in the window,
    nothing overflows, and a weight below the double range underflows to 0.
    """
    c = np.asarray(coef, dtype=float)
    ta = np.asarray(t, dtype=float)
    flat = ta.ravel()
    windows = []
    for k in range(3):
        a = np.diff(c, n=k, axis=-1) * math.perm(c.shape[-1] - 1, k)
        live = np.flatnonzero(np.any(a != 0.0, axis=tuple(range(a.ndim - 1))))
        if live.size:
            m, lo, hi = a.shape[-1] - 1, int(live[0]), int(live[-1])
            binom = np.exp([_log_comb(m, j) for j in range(lo, hi + 1)])
            windows.append((k, m, lo, hi, (a[..., lo : hi + 1] * binom)[..., None]))
    out = np.zeros((3,) + c.shape[:-1] + flat.shape)
    low = flat <= 0.5
    with np.errstate(divide="ignore"):
        for mask, is_low in ((low, True), (~low, False)):
            tm = flat[mask]
            ratio = tm / (1.0 - tm) if is_low else (1.0 - tm) / tm
            log_t, log_1mt = np.log(tm), np.log1p(-tm)
            for k, m, lo, hi, coef_w in windows:
                lead = lo if is_low else hi
                acc = 0.0
                for j in range(hi - lo, -1, -1) if is_low else range(hi - lo + 1):
                    acc = acc * ratio + coef_w[..., j, :]
                expo = (lead * log_t if lead else 0.0) + ((m - lead) * log_1mt if m > lead else 0.0)
                out[k][..., mask] = acc * np.exp(expo)
    return tuple(out.reshape((3,) + c.shape[:-1] + ta.shape))


# -- model-facing densities --------------------------------------------------


def order_stat_pdf(model: Model, u: int, set_size: int, x: FloatArray) -> FloatArray:
    """Density of the u-th order statistic of a size-S sample from the model.

    :raises DensityError: rank outside 1..set_size.
    """
    if not 1 <= u <= set_size:
        raise DensityError(f"rank must lie in 1..{set_size}, got {u}")
    f = np.asarray(model.pdf(x), dtype=float)
    t = np.asarray(model.cdf(x), dtype=float)
    out = set_size * np.asarray(bernstein(set_size, u, t)) * f
    return out if np.ndim(x) else float(out)


def subset_pdf(model: Model, design: Design, r: int, x: FloatArray) -> FloatArray:
    """Marginal density of a measurement judged (perfectly) into subset r.

    Equal to the average of the order-statistic densities with ranks in d_r.
    """
    ranks = design.subset(r)
    f = np.asarray(model.pdf(x), dtype=float)
    t = np.asarray(model.cdf(x), dtype=float)
    out = f * np.asarray(block_weight(design.set_size, ranks, t))
    return out if np.ndim(x) else float(out)


def g_factor(
    model: Model, design: Design, alpha: MisplacementMatrix, r: int, x: FloatArray
) -> FloatArray:
    """Density tilt g_r(x) with f_[d_r] = f * g_r under misplacement alpha.

    :raises DesignError: alpha dimension differs from the number of subsets.
    """
    if alpha.n != design.n:
        raise DesignError(
            f"misplacement matrix is {alpha.n}x{alpha.n} but the design has {design.n} subsets"
        )
    t = np.asarray(model.cdf(x), dtype=float)
    out = alpha_weight(design.set_size, design.subsets, alpha.row(r), t)
    return np.asarray(out) if np.ndim(x) else float(out)


def imperfect_subset_pdf(
    model: Model, design: Design, alpha: MisplacementMatrix, r: int, x: FloatArray
) -> FloatArray:
    """f_[d_r](x) = f(x) g_r(x): marginal density of a unit judged into subset r."""
    f = np.asarray(model.pdf(x), dtype=float)
    out = f * np.asarray(g_factor(model, design, alpha, r, x))
    return out if np.ndim(x) else float(out)


def unbalanced_weight(
    ud: UnbalancedDesign, i: int, r: int, alpha_i: MisplacementMatrix, t: FloatArray
) -> FloatArray:
    """Quantile-domain weight of the measurement from set r of cycle i.

    The judged block is the set's measured index; misplacement mixes the
    (S/m_h)-weighted block densities of the same set's partition.
    """
    sets = ud.sets_in_cycle(i)
    if not 1 <= r <= len(sets):
        raise DensityError(f"cycle {i} has sets 1..{len(sets)}, got {r}")
    sp = sets[r - 1]
    if alpha_i.n != len(sp.partition):
        raise DesignError(
            f"misplacement matrix is {alpha_i.n}x{alpha_i.n} but cycle {i} partitions "
            f"into {len(sp.partition)} subsets"
        )
    return alpha_weight(ud.set_size, sp.partition, alpha_i.row(sp.measured), t)


def unbalanced_subset_pdf(
    model: Model,
    ud: UnbalancedDesign,
    r: int,
    i: int,
    alpha_i: MisplacementMatrix,
    x: FloatArray,
) -> FloatArray:
    """Marginal density of the measurement from set r of cycle i under alpha_i."""
    f = np.asarray(model.pdf(x), dtype=float)
    t = np.asarray(model.cdf(x), dtype=float)
    out = f * np.asarray(unbalanced_weight(ud, i, r, alpha_i, t))
    return out if np.ndim(x) else float(out)


def latent_conditional(model: Model, design: Design, r: int, x: float) -> np.ndarray:
    """Conditional probabilities of the latent rank u in d_r given the measured value.

    Entry j is proportional to f^(u_j:S)(x) for u_j the j-th rank of subset r.

    :raises DensityError: the measurement lies outside the support, so every
        order-statistic density vanishes.
    """
    ranks = design.subset(r)
    t = float(model.cdf(x))
    weights = np.array([bernstein(design.set_size, u, t) for u in ranks], dtype=float)
    total = weights.sum()
    if not total > 0.0:
        raise DensityError(
            f"latent rank probabilities vanish at x={x!r}: point outside the support"
        )
    return weights / total
