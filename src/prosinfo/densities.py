"""Densities induced by rank-ordered set designs.

Everything is built from the Bernstein weights

    b_u(t) = C(S-1, u-1) t^(u-1) (1-t)^(S-u),   u = 1..S,

because the u-th order statistic of a size-S sample has density
f^(u:S)(x) = S b_u(F(x)) f(x).  A measured unit judged into rank block d_r then
has density f(x) w(F(x)) where w(t) = (S/m) sum_{u in d_r} b_u(t), and
misplacement replaces w by an alpha-weighted mixture of the per-block weights.
Every such weight is one row of rank coefficients, w = sum_u c_u b_u
(rank_coefficients), and bernstein_series evaluates any stack of rows with its
first two t-derivatives on the quantile domain t in [0,1], where the weights
are distribution-free, from one table of powers t^j and (1-t)^j per call: every
factor lies in [0, 1], so nothing overflows and a weight below the double range
underflows to 0.  The *_pdf operations are thin compositions of one row with a
model's f and F.
"""

from __future__ import annotations

import math
import typing as tp

import numpy as np

from .designs import Design, MisplacementMatrix, UnbalancedDesign
from .models import Model

FloatArray = tp.Union[float, np.ndarray]
Blocks = tp.Sequence[tp.Sequence[int]]


class DensityError(ValueError):
    """Invalid rank, index, or evaluation point for a design-induced density."""


def rank_coefficients(set_size: int, blocks: Blocks, alpha_row: np.ndarray) -> np.ndarray:
    """Coefficients c_u = sum_h alpha_row[h] (S/m_h) 1[u in blocks[h]] of the weight sum_u c_u b_u.

    :raises DensityError: the row length differs from the block count, or a
        rank lies outside 1..set_size.
    """
    if len(alpha_row) != len(blocks):
        raise DensityError(f"misplacement row has {len(alpha_row)} entries for {len(blocks)} blocks")
    c = np.zeros(set_size)
    for a_h, ranks in zip(alpha_row, blocks):
        for u in ranks:
            if not 1 <= u <= set_size:
                raise DensityError(f"rank must lie in 1..{set_size}, got {u}")
        c[np.asarray(ranks) - 1] += a_h * set_size / len(ranks)
    return c


def bernstein_series(coef: np.ndarray, t: FloatArray) -> tuple[np.ndarray, ...]:
    """w(t) = sum_u coef[..., u-1] b_u(t) and its first two t-derivatives.

    coef holds rank coefficients c_1..c_S on its last axis (see
    rank_coefficients); leading axes are independent series, and each result
    has shape coef.shape[:-1] + t.shape.  The k-th derivative is the degree
    m = S-1-k series of the k-th differences of c, times (S-1)!/m!: one matrix
    product of (Delta^k c)_j C(m, j) with t^j (1-t)^(m-j) over the window lo..hi
    of coefficients non-zero in some row.  All three share one table of powers
    t^j and (1-t)^j, built up to the highest exponent a window needs by O(log S)
    in-place multiplies per block of at most 2^15 / (2S) points.  As 0^0 = 1,
    t = 0 and 1 are exact; a weight below the double range underflows to 0.
    """
    c = np.asarray(coef, dtype=float)
    flat = np.ravel(np.asarray(t, dtype=float))
    a = c.reshape(-1, c.shape[-1])
    out = np.zeros((3, a.shape[0], flat.size))
    windows = []
    for k in range(3):
        live = np.flatnonzero(a.any(axis=0))
        if live.size:
            m, lo, hi = a.shape[1] - 1, int(live[0]), int(live[-1])
            scale = [float(math.perm(c.shape[-1] - 1, k) * math.comb(m, j)) for j in range(lo, hi + 1)]
            windows.append((k, m, lo, hi, a[:, lo : hi + 1] * scale))
        a = a[:, 1:] - a[:, :-1]
    top = max([max(hi, m - lo, 1) for _, m, lo, hi, _ in windows], default=1)
    # memory for a table of 2^15 doubles is reused; a 4 MB one (S = 64, 4096 draws) page-faults per call
    step = max(2**15 // (2 * top + 2), 1)
    for first in range(0, flat.size if windows else 0, step):
        block = flat[first : first + step]
        powers = np.empty((top + 1, 2, block.size))  # powers[j] = (t^j, (1-t)^j)
        powers[0], powers[1], n = 1.0, (block, 1.0 - block), 1
        while n < top:  # rows n+1..2n are rows 1..n times row n
            np.multiply(powers[1 : min(n, top - n) + 1], powers[n], out=powers[n + 1 : min(2 * n, top) + 1])
            n *= 2
        for k, m, lo, hi, coef_w in windows:
            # row j - lo is t^j (1-t)^(m-j): the (1-t) exponents run down from m - lo
            basis = powers[lo : hi + 1, 0] * powers[m - lo : m - hi - 1 if m > hi else None : -1, 1]
            out[k, :, first : first + step] = coef_w @ basis
    return tuple(out.reshape((3,) + c.shape[:-1] + np.shape(t)))


def block_weight(set_size: int, ranks: tp.Sequence[int], t: FloatArray) -> FloatArray:
    """Quantile-domain density (S/m) sum_{u in ranks} b_u(t) of a measured block."""
    return _weight(rank_coefficients(set_size, (ranks,), [1.0]), t)


def _weight(coef: np.ndarray, t: FloatArray) -> FloatArray:
    """w(t) of one coefficient row; a scalar t gives a float."""
    w = bernstein_series(coef, t)[0]
    return w if np.ndim(t) else float(w)


# -- model-facing densities --------------------------------------------------


def _density(model: Model, coef: np.ndarray, x: FloatArray) -> FloatArray:
    """f(x) w(F(x)) of one coefficient row; a scalar x gives a float."""
    return model.pdf(x) * _weight(coef, model.cdf(x))


def order_stat_pdf(model: Model, u: int, set_size: int, x: FloatArray) -> FloatArray:
    """Density of the u-th order statistic of a size-S sample from the model.

    :raises DensityError: rank outside 1..set_size.
    """
    return _density(model, rank_coefficients(set_size, ((u,),), [1.0]), x)


def subset_pdf(model: Model, design: Design, r: int, x: FloatArray) -> FloatArray:
    """Marginal density of a measurement judged (perfectly) into subset r.

    Equal to the average of the order-statistic densities with ranks in d_r.
    """
    return _density(model, rank_coefficients(design.set_size, (design.subset(r),), [1.0]), x)


def g_factor(
    model: Model, design: Design, alpha: MisplacementMatrix, r: int, x: FloatArray
) -> FloatArray:
    """Density tilt g_r(x) with f_[d_r] = f * g_r under misplacement alpha.

    :raises DesignError: alpha dimension differs from the number of subsets.
    """
    ud = UnbalancedDesign.from_design(design)
    return _weight(_unbalanced_coefficients(ud, 1, r, alpha), model.cdf(x))


def imperfect_subset_pdf(
    model: Model, design: Design, alpha: MisplacementMatrix, r: int, x: FloatArray
) -> FloatArray:
    """f_[d_r](x) = f(x) g_r(x): marginal density of a unit judged into subset r."""
    ud = UnbalancedDesign.from_design(design)
    return _density(model, _unbalanced_coefficients(ud, 1, r, alpha), x)


def _unbalanced_coefficients(ud: UnbalancedDesign, i: int, r: int, alpha_i: MisplacementMatrix) -> np.ndarray:
    rows = [(sp, row) for sp, row in ud.measured_rows({i: alpha_i}) if sp.cycle == i]
    if not 1 <= r <= len(rows):
        raise DensityError(f"cycle {i} has sets 1..{len(rows)}, got {r}")
    sp, row = rows[r - 1]
    return rank_coefficients(ud.set_size, sp.partition, row)


def unbalanced_weight(
    ud: UnbalancedDesign, i: int, r: int, alpha_i: MisplacementMatrix, t: FloatArray
) -> FloatArray:
    """Quantile-domain weight of the measurement from set r of cycle i.

    The judged block is the set's measured index; misplacement mixes the
    (S/m_h)-weighted block densities of the same set's partition.
    """
    return _weight(_unbalanced_coefficients(ud, i, r, alpha_i), t)


def unbalanced_subset_pdf(
    model: Model,
    ud: UnbalancedDesign,
    r: int,
    i: int,
    alpha_i: MisplacementMatrix,
    x: FloatArray,
) -> FloatArray:
    """Marginal density of the measurement from set r of cycle i under alpha_i."""
    return _density(model, _unbalanced_coefficients(ud, i, r, alpha_i), x)


def latent_conditional(model: Model, design: Design, r: int, x: float) -> np.ndarray:
    """Conditional probabilities of the latent rank u in d_r given the measured value.

    Entry j is proportional to f^(u_j:S)(x) for u_j the j-th rank of subset r.
    The weights b_u(F(x)) are formed and normalized in log space (1 - F(x) as
    the model's survival function), so a block deep in a tail neither
    underflows nor loses its small entries.  Where F(x) or 1 - F(x) rounds to
    0 inside the support, the block's lowest or highest rank holds all the
    mass: the limit, exact to within F(x) S < 1e-300.

    :raises DensityError: the measurement lies outside the open support and
        every order-statistic density of the block vanishes there.
    """
    k = np.asarray(design.subset(r)) - 1.0
    big_n = design.set_size - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t, log_1mt = np.log(model.cdf(x)), np.log(model.sf(x))
        log_w = (
            np.log([float(math.comb(big_n, int(j))) for j in k])
            + np.where(k > 0, k * log_t, 0.0)
            + np.where(k < big_n, (big_n - k) * log_1mt, 0.0)
        )
    if not np.any(log_w > -np.inf):
        lo, hi = model.support()
        if not lo < x < hi:
            raise DensityError(f"latent rank probabilities vanish at x={x!r}: point outside the support")
        log_w = np.where(k == (k.min() if log_t == -np.inf else k.max()), 0.0, -np.inf)
    weights = np.exp(log_w - log_w.max())
    return weights / weights.sum()
