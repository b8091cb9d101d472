"""Densities induced by rank-ordered set designs.

Everything is built from the Bernstein weights

    b_u(t) = C(S-1, u-1) t^(u-1) (1-t)^(S-u),   u = 1..S,

because the u-th order statistic of a size-S sample has density
f^(u:S)(x) = S b_u(F(x)) f(x).  A measured unit judged into rank block d_r then
has density f(x) w(F(x)) where w(t) = (S/m) sum_{u in d_r} b_u(t), and
misplacement replaces w by an alpha-weighted mixture of the per-block weights.
Every such weight is one row of rank coefficients, w = sum_u c_u b_u
(rank_coefficients), and bernstein_series evaluates any stack of rows, with
the t-derivatives its caller reads, on the quantile domain t in [0,1], where
the weights are distribution-free, from the bases t^j (1-t)^(m-j): one table of
powers per block of points, and keeps nothing.  block_table keeps each
partition's block weights, with W' for the Fisher routes, at integrate's node
arrays, fixed at import as its levels and tolerances are constants.  The bases
lie in [0, 1], so a weight below the double range underflows to 0; a set size
whose scaled coefficients pass that range is refused.  A measured unit's
density is its model's f(x) times bernstein_series of its row at F(x).
"""

from __future__ import annotations

import math
import typing as tp

import numpy as np

from . import numerics
from .designs import Design, MisplacementMatrix

FloatArray = tp.Union[float, np.ndarray]
Blocks = tp.Sequence[tp.Sequence[int]]


class DensityError(ValueError):
    """Invalid rank, index, or evaluation point for a design-induced density."""


def rank_coefficients(set_size: int, blocks: Blocks, alpha_row: tp.Any) -> np.ndarray:
    """Coefficients c_u = sum_h alpha_row[h] (S/m_h) 1[u in blocks[h]] of the weight sum_u c_u b_u.

    alpha_row may stack rows on leading axes: one coefficient row per alpha row.

    :raises DensityError: the row length differs from the block count, or a
        rank lies outside 1..set_size.
    """
    a = np.asarray(alpha_row, dtype=float)
    if a.shape[-1] != len(blocks):
        raise DensityError(f"misplacement row has {a.shape[-1]} entries for {len(blocks)} blocks")
    ranks = [u for block in blocks for u in block]
    bad = [u for u in ranks if not 1 <= u <= set_size]
    if bad:
        raise DensityError(f"rank must lie in 1..{set_size}, got {bad[0]}")
    per_block = (a * set_size / [len(block) for block in blocks]).T
    c = np.zeros(a.shape[:-1] + (set_size,))
    np.add.at(c.T, np.array(ranks, dtype=int) - 1, per_block[[h for h, block in enumerate(blocks) for _ in block]])
    return c


def bernstein_series(coef: np.ndarray, t: FloatArray, s: FloatArray | None = None,
                     orders: int = 3) -> tuple[np.ndarray, ...]:
    """w(t) = sum_u coef[..., u-1] b_u(t) and its t-derivatives, orders in all; s is 1 - t, or 1.0 - t if not given.

    coef holds rank coefficients c_1..c_S on its last axis (see
    rank_coefficients); leading axes are independent series, and each result
    has shape coef.shape[:-1] + t.shape.  The k-th derivative is the degree
    m = S-1-k series of the k-th differences of c: one matrix product of the
    scaled window (S-1)!/m! C(m, j) (Delta^k c)_j with t^j (1-t)^(m-j) over the
    window lo..hi of coefficients non-zero in some row.  Only windows k < orders
    are formed; they share one table of powers t^j and s^j, built up to the
    highest exponent of window 0, which no later window passes, by O(log S)
    in-place multiplies per block of points.  A block holds the largest power of
    two of points at most 2^17 / (2S) and numerics.CHUNK_SIZE, so a Monte Carlo
    chunk's values do not depend on which chunks share its pass.  As 0^0 = 1,
    t = 0 and 1 are exact; a weight below the double range underflows to 0.
    :raises DensityError: a scaled window it forms passes the double range, as w'' of two blocks from S = 1012.
    """
    c = np.asarray(coef, dtype=float)
    flat = np.ravel(np.asarray(t, dtype=float))
    flat_s = 1.0 - flat if s is None else np.ravel(np.asarray(s, dtype=float))
    a = c.reshape(-1, c.shape[-1])
    out = np.zeros((orders, a.shape[0], flat.size))
    windows = []
    for k in range(orders):
        live = np.flatnonzero(a.any(axis=0))
        if live.size:
            m, lo, hi, perm = a.shape[1] - 1, int(live[0]), int(live[-1]), math.perm(c.shape[-1] - 1, k)
            try:
                scale = [float(perm * math.comb(m, j)) for j in range(lo, hi + 1)]
                with np.errstate(over="raise"):
                    windows.append((k, (m, lo, hi), a[:, lo : hi + 1] * scale))
            except (OverflowError, FloatingPointError):
                raise DensityError(f"set size S={c.shape[-1]} is too large: Bernstein coefficients overflow") from None
        a = a[:, 1:] - a[:, :-1]
    spans = tuple(span for _, span, _ in windows)
    top = max([max(hi, m - lo, 1) for m, lo, hi in spans], default=1)
    # a table of up to 2^17 doubles keeps the numpy calls per point few; a 4 MB one (S = 64, 4096 draws)
    # page-faults per call
    step = 2 ** (min(max(2**17 // (2 * top + 2), 1), numerics.CHUNK_SIZE).bit_length() - 1)
    for first in range(0, flat.size if windows else 0, step):
        bases = _bases(flat[first : first + step], flat_s[first : first + step], spans, top)
        for (k, _, coef_w), basis in zip(windows, bases):
            out[k, :, first : first + step] = coef_w @ basis
    return tuple(out.reshape((orders,) + c.shape[:-1] + np.shape(t)))


def _bases(t: np.ndarray, s: np.ndarray, spans: tp.Sequence[tuple[int, int, int]], top: int) -> tuple[np.ndarray, ...]:
    """Rows t^j s^(m-j), j = lo..hi, of each (m, lo, hi) in spans at t, s = 1 - t, from one table of powers to top."""
    powers = np.empty((top + 1, 2, t.size))  # powers[j] = (t^j, s^j)
    powers[0], powers[1], n = 1.0, (t, s), 1
    while n < top:  # rows n+1..2n are rows 1..n times row n
        np.multiply(powers[1 : min(n, top - n) + 1], powers[n], out=powers[n + 1 : min(2 * n, top) + 1])
        n *= 2
    # the s exponents run down from m - lo
    return tuple(powers[lo : hi + 1, 0] * powers[m - hi : m - lo + 1, 1][::-1] for m, lo, hi in spans)


def block_table(set_size: int, partition: tuple[tuple[int, ...], ...], t: np.ndarray, s: np.ndarray,
                orders: int = 2) -> np.ndarray:
    """(W, W')[:orders] at t, s = 1 - t: row h of W is block h's weight (S/m_h) sum_{u in B_h} b_u, W' its derivative.

    At integrate's node arrays the table is built once per (S, partition, orders) and kept (numerics.node_memo).
    """

    def build(_: np.ndarray) -> tuple[np.ndarray]:
        coef = rank_coefficients(set_size, partition, np.eye(len(partition)))
        return (np.stack(bernstein_series(coef, t, s, orders)),)

    return numerics.node_memo(("blocks", set_size, partition, orders), t, build)[0]


def block_weight(set_size: int, ranks: tp.Sequence[int], t: FloatArray) -> FloatArray:
    """Quantile-domain density (S/m) sum_{u in ranks} b_u(t) of a measured block."""
    return _weight(rank_coefficients(set_size, (ranks,), [1.0]), t)


def _weight(coef: np.ndarray, t: FloatArray) -> FloatArray:
    """w(t) of one coefficient row; a scalar t gives a float."""
    w = bernstein_series(coef, t, orders=1)[0]
    return w if np.ndim(t) else float(w)


def unbalanced_weight(
    design: Design, i: int, r: int, alpha_i: MisplacementMatrix, t: FloatArray
) -> FloatArray:
    """Quantile-domain weight of the measurement from set r of cycle i.

    The judged block is the set's measured index; misplacement mixes the
    (S/m_h)-weighted block densities of the same set's partition.
    """
    rows = [(sp, row) for sp, row in design.measured_rows({i: alpha_i}) if sp.cycle == i]
    if not 1 <= r <= len(rows):
        raise DensityError(f"cycle {i} has sets 1..{len(rows)}, got {r}")
    return _weight(rank_coefficients(design.set_size, rows[r - 1][0].partition, rows[r - 1][1]), t)
