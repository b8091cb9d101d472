"""Random generation of ranked-set style samples and ranking-error estimation.

Every measured unit is drawn by block_draws on the quantile scale: the true
rank u has probability c_u / S, with c the rank coefficients of the judged
block's misplacement-mixed weight (densities.rank_coefficients), so source
block h comes with probability alpha[r, h] and u is uniform among h's ranks;
then t ~ Beta(u, S+1-u) and the value is the order statistic
X_(u:S) = F^{-1}(t), which has the same joint law of (value, rank) as drawing
S values, sorting them and measuring the u-th.  One private sampler makes one
such call per judgment set of a designs.Design, for all replications at once;
draw_unbalanced_pros and draw_pros are its two entries.  The true rank of every
measured unit is recorded, which is what the complete-data information
estimators and the latent-rank diagnostics consume.

Ranking quality is modeled on the Dell and Clutter concomitant scheme: the
ranker perceives W = rho * Z + sqrt(1 - rho^2) * eps instead of the
standardized response Z, at every rho in [0, 1], 1 included.  Each simulated
set is held in true-rank order and a stable sort of W reads off the true
ranks, so tied perceptions keep that order and rho = 1 is exact ranking at
every shape.  estimate_alphas tallies the block confusion of every requested
partition at every rho from one draw of sets; it and its three one-matrix
entries take rho (or rhos), reps = DC_REPS and seed = DEFAULT_SEED.

sample_to_csv writes the bytes of str of each index and '%.17g' of each value,
row by row, but builds them with numpy in one NUL-padded byte matrix, whose
padding one bytes.translate drops.  A value with |v| in [1e-4, 1e17), where %g
prints fixed notation, takes its 17 digits from the exact product
|v| * 10**(16 - e) of its decade e (Dekker's two-product), rounded half to
even; every other value, and an index column that is not integers in
[0, 10**8), is formatted one entry at a time.
"""

from __future__ import annotations

import dataclasses
import typing as tp

import numpy as np

from . import densities, numerics
from .designs import Design, MisplacementMatrix, _check_partition, identity_alpha
from .models import Model

DC_REPS = 5000  # simulated judgment sets per Dell-Clutter estimate, unless a request names its own


class SamplingError(ValueError):
    """Inconsistent sampling request."""


@dataclasses.dataclass(frozen=True)
class ProsSample:
    """Measured units of a PROS sample with their latent rank bookkeeping.

    :param values: measured responses, one per judgment set.
    :param cycle: 1-based cycle number of each measurement.
    :param set_index: 1-based set number within its cycle.
    :param target_subset: block the measurement was judged to come from.
    :param source_subset: block it actually came from (differs under misplacement).
    :param true_rank: latent position u in the set's sorted order, 1..S.
    """

    values: np.ndarray
    cycle: np.ndarray
    set_index: np.ndarray
    target_subset: np.ndarray
    source_subset: np.ndarray
    true_rank: np.ndarray
    design_label: str = ""

    def __post_init__(self) -> None:
        n = len(self.values)
        for field in ("cycle", "set_index", "target_subset", "source_subset", "true_rank"):
            if len(getattr(self, field)) != n:
                raise SamplingError(f"field {field} has length != {n}")

    def __len__(self) -> int:
        return len(self.values)


def draw_srs(model: Model, n: int, seed: int = numerics.DEFAULT_SEED) -> np.ndarray:
    """n i.i.d. draws via the quantile transform."""
    n = numerics.whole(n, "sample size", 1, SamplingError)
    return np.asarray(model.quantile(numerics.substream(seed).random(n)))


def draw_pros(
    model: Model,
    design: Design,
    alpha: MisplacementMatrix | None = None,
    seed: int = numerics.DEFAULT_SEED,
) -> ProsSample:
    """One PROS sample: N cycles of n judgment sets, one measurement per set.

    Set r targets block r; under misplacement (alpha, in every cycle) the measured unit comes from
    block h with probability alpha[r, h], uniformly among that block's ranks.
    """
    return _draw(model, design, dict.fromkeys(design.cycle_ids, alpha), seed, design.label())


def draw_unbalanced_pros(
    model: Model,
    design: Design,
    alphas: tp.Mapping[int, MisplacementMatrix | None] | None = None,
    seed: int = numerics.DEFAULT_SEED,
) -> ProsSample:
    """K measurements per replication following each set's own partition and target block."""
    return _draw(model, design, alphas, seed, design.label(as_unbalanced=True))


def _draw(model: Model, design: Design, alphas: tp.Mapping | None, seed: int, label: str) -> ProsSample:
    """Each set draws all its replications through block_draws; rows by replication, cycle, then set."""
    rng = numerics.substream(seed)
    rows = design.measured_rows(alphas)
    lo, hi = model.support()
    columns = []
    for sp, row in rows:
        with np.errstate(over="ignore", invalid="ignore"):
            x, u, _t = block_draws(model, design.set_size, sp.partition, row, rng, design.replications)
        if not np.all(np.isfinite(x)):
            raise SamplingError(f"{model.label()} gave a non-finite draw in cycle {sp.cycle}")
        if not np.all((x > lo) & (x < hi)):  # a quantile that underflows onto an end of the support
            raise SamplingError(f"{model.label()} gave a draw outside its support ({lo:g}, {hi:g}) in cycle {sp.cycle}")
        columns.append((x, u, np.searchsorted([b[0] for b in sp.partition], u, side="right")))
    values, ranks, source = (np.stack(c, axis=1).ravel() for c in zip(*columns))
    cycle = np.array([sp.cycle for sp, _ in rows])
    # rows come grouped by cycle, so a set's index is its offset from its cycle's first row
    set_index = np.arange(1, len(rows) + 1) - np.searchsorted(cycle, cycle)
    reps = design.replications
    return ProsSample(
        values=values,
        cycle=(np.arange(reps)[:, None] * cycle[-1] + cycle).ravel(),
        set_index=np.tile(set_index, reps),
        target_subset=np.tile([sp.measured for sp, _ in rows], reps),
        source_subset=source,
        true_rank=ranks,
        design_label=label,
    )


_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")  # column c: the 4 ASCII digits of c
# _TENS[i] is the least double >= 10**(i - 4), exact from 10**0 on: a double v >= 10**e exactly where v >= _TENS[e + 4]
_TENS = np.r_[1e-4, 1e-3, 1e-2, 0.1, 10.0 ** np.arange(21)]
_LEADS = np.r_[10 ** np.arange(7, 0, -1), 0]  # the least value that prints a digit at each of the last 8 places


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p, err with p + err == a * b exactly: Dekker's product over Veltkamp's split by 2**27 + 1."""
    p = a * b
    c, d = (2.0**27 + 1) * a, (2.0**27 + 1) * b
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _digit_rows(x: np.ndarray, width: int) -> np.ndarray:
    """(width, len(x)) ASCII digits of the integers 0 <= x < 10**width <= 10**8, zero-padded."""
    if width <= 4:
        return np.take(_DIGITS, x, axis=1)[-width:]
    high = x // 10**4
    return np.vstack([np.take(_DIGITS, high, axis=1), np.take(_DIGITS, x - high * 10**4, axis=1)])[-width:]


def _text_rows(strings: list[str]) -> np.ndarray:
    """(width, len(strings)) bytes of ASCII strings, NUL-padded."""
    return np.array(strings, dtype=bytes)[:, None].view(np.uint8).T


def _index_rows(column: np.ndarray) -> np.ndarray:
    """str of each entry: integers in [0, 10**8) from the digit table, anything else one by one."""
    x = np.asarray(column)
    if x.dtype.kind not in "iu" or x.min(initial=0) < 0 or (top := x.max(initial=0)) >= 10**8:
        return _text_rows([str(i) for i in x.tolist()])
    width = len(str(top))
    return _digit_rows(x.astype(np.int64, copy=False), width) * (x >= _LEADS[-width:, None])  # leading zeros: NUL


def _value_rows(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each value.  For |v| in [1e-4, 1e17) in decade e that is N * 10**(e - 16) in fixed notation,
    N the round-half-even of the exact |v| * 10**(16 - e); +-0, subnormals, nan, +-inf and the rest go one by one."""
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    e += (a >= _TENS[e + 5]).astype(np.intp) - (a < _TENS[e + 4])  # log10 may be one off beside a power of ten
    p, err = _two_product(a, _TENS[20 - e])
    # p >= 1e16 > 2**53 is even, so this rounds p + err half to even.  n < 10**17: the largest double under 10**k,
    # k = -3..17, lies more than 8e-17 * 10**k below it, 16 times the half unit of the 17th digit that rounds up
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    top, lead = n // 10**8, n // 10**16
    digits = np.vstack([lead.astype(np.uint8) + ord("0"), _digit_rows(top - lead * 10**8, 8),
                        _digit_rows(n - top * 10**8, 8)])
    place = np.arange(17, dtype=np.uint8)[:, None]
    last = ((digits != ord("0")) * place).max(axis=0)  # the last non-zero digit
    digits *= place <= np.maximum(last, e).astype(np.uint8)  # trailing fraction zeros become NUL
    minus, zero, point = np.frombuffer(b"-0.", np.uint8)
    rows = [minus * (v < 0), zero * (e < 0), point * (e < 0)]
    rows += [zero * (e <= -m) for m in range(2, 1 - e.min(initial=0))]  # the fraction's leading zeros
    places = np.flatnonzero(np.bincount(e + 4, minlength=21)[4:])  # a point row after digit i, for rows with e == i
    table = np.vstack(rows + [np.insert(digits, places + 1, point * ((e == places[:, None]) & (last > e)), axis=0)])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = _text_rows(["%.17g" % x for x in v[slow].tolist()])
        table = np.vstack([table, np.zeros((max(len(text) - len(table), 0), len(v)), np.uint8)])
        table[:, slow] = 0
        table[: len(text), slow] = text
    return table


def sample_to_csv(sample: ProsSample) -> str:
    """CSV rendering: cycle,set,subset,value,true_position, with str of each index and '%.17g' of each value."""
    # each field NUL-padded to its widest entry, one table row per sample row; the NULs are dropped from the bytes
    fields = (_index_rows(sample.cycle), _index_rows(sample.set_index), _index_rows(sample.target_subset),
              _value_rows(sample.values), _index_rows(sample.true_rank))
    comma = np.full((len(sample), 1), ord(","), np.uint8)
    table = np.hstack([column for field in fields for column in (field.T, comma)])
    table[:, -1] = ord("\n")
    return "cycle,set,subset,value,true_position\n" + table.tobytes().translate(None, b"\0").decode("ascii")


# -- bulk engines for Monte Carlo information estimates -----------------------


def block_draws(
    model: Model,
    set_size: int,
    blocks: tp.Sequence[tp.Sequence[int]],
    alpha_row: np.ndarray,
    rng: np.random.Generator,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count draws of (value x, true rank u, t = F(x)) for one judged block under alpha_row.

    u is drawn with probability c_u / sum(c) from the rank coefficients of the
    weight, so a row that sums to 1 only up to rounding still yields a rank of
    positive weight.  The order-statistic shortcut t ~ Beta(u, S+1-u),
    x = F^{-1}(t) gives the joint law of (value, rank) of the literal
    sort-based procedure.
    """
    cum = np.cumsum(densities.rank_coefficients(set_size, blocks, alpha_row))
    x = rng.random(count) * cum[-1]
    u = np.ones(count, dtype=np.intp)  # 1 + the boundaries at or below x: searchsorted's side="right", in S passes
    for edge in cum:
        u += edge <= x
    rank = u.astype(float)  # rng.beta would convert an integer array, to the same draws, at more cost
    t = rng.beta(rank, set_size + 1.0 - rank)
    return np.asarray(model.quantile(t)), u, t


def _sinkhorn(a: np.ndarray) -> np.ndarray:
    """Doubly stochastic projection by row and column scaling, to all sums within 1e-10 of 1.

    Nearly diagonal counts (rho near 1 over unequal blocks) take thousands of steps; the cap of 100 000 only bounds
    a matrix that never converges, which MisplacementMatrix then refuses.
    """
    a = np.array(a, dtype=float)
    for _ in range(100_000):
        a /= a.sum(axis=1, keepdims=True)
        a /= a.sum(axis=0, keepdims=True)
        if np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-10 and np.max(np.abs(a.sum(axis=0) - 1.0)) < 1e-10:
            break
    return a / a.sum(axis=1, keepdims=True)  # a last row normalization keeps row sums 1 within float error


def estimate_alphas(
    model: Model, set_size: int, partitions: tp.Sequence[tp.Sequence[tp.Sequence[int]]], rhos: tp.Sequence[float],
    reps: int = DC_REPS, seed: int = numerics.DEFAULT_SEED,
) -> list[list[MisplacementMatrix]]:
    """Dell-Clutter matrices out[i][j] of partitions[i] at rhos[j], all tallied from one draw of reps sets at seed.

    Every simulated unit contributes one (perceived block, true block) count; the counts are row-normalized,
    symmetrized with their transpose and projected to doubly stochastic form.  Every rho perceives through the same
    rule, and tied perceptions keep true-rank order, so rho = 1 gives the identity at every shape.  Each rho sorts
    once for all partitions, so an entry equals a call with its pair alone.

    :raises SamplingError: a rho outside [0, 1], or set_size or reps not an integer or below 1.
    :raises DesignError: a partition is not consecutive blocks covering 1..set_size.
    """
    for rho in rhos:
        if not 0.0 <= rho <= 1.0:  # 1 is exact ranking, 0 random ranking
            raise SamplingError(f"rho must lie in [0, 1], got {rho!r}")
    set_size = numerics.whole(set_size, "set_size", 1, SamplingError)
    reps = numerics.whole(reps, "reps", 1, SamplingError)
    partitions = [_check_partition(set_size, blocks) for blocks in partitions]
    if all(len(blocks) == 1 for blocks in partitions):
        return [[identity_alpha(1)] * len(rhos) for _ in partitions]
    rng = numerics.substream(seed)

    # each set is standardized by its own sample moments; the per-set scale modulates the effective perception noise
    # and is what reproduces the published efficiency curves (analytic moments run systematically low).  Location and
    # scale cancel in that standardization, and the ranks are the same on either scale, so the sets are drawn on the
    # standard member, whose values keep their precision where mu dwarfs sigma.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.asarray(model.standard()[0].quantile(rng.random((reps, set_size))))
        d = x - x.mean(axis=1, keepdims=True)
        ss = (d * d).sum(axis=1, keepdims=True)
        far = np.flatnonzero(~((ss > 1e-290) & (ss < 1e290)))  # squares that may under- or overflow: scale d exactly
        d[far] = np.ldexp(d[far], -np.frexp(np.abs(d[far]).max(axis=1, keepdims=True))[1])
        ss[far] = (d[far] * d[far]).sum(axis=1, keepdims=True)
        z = d / np.sqrt(ss / (set_size - 1))  # elsewhere the bits of x.std(ddof=1)
    if not np.all(np.isfinite(z)):
        raise SamplingError(f"Dell-Clutter ranking: {model.label()} gave a set of non-finite standardized values")
    order = np.argsort(x, axis=1)  # column k of each set becomes its unit of true rank k (0-based), with its noise
    z, noise = (np.take_along_axis(v, order, axis=1) for v in (z, rng.standard_normal(x.shape)))
    out: list[list[MisplacementMatrix]] = [[] for _ in partitions]
    for rho in rhos:
        w = rho * z + np.sqrt(1.0 - rho**2) * noise  # at rho = 1 this adds 0 * noise, which moves no rank
        true_rank = np.argsort(w, axis=1, kind="stable")  # ties keep true-rank order, so rho = 1 ranks exactly
        # pairs[p, q]: units perceived at rank p whose true rank is q; integers, so block sums are exact
        pairs = np.bincount((set_size * np.arange(set_size) + true_rank).ravel(), minlength=set_size**2)
        pairs = pairs.reshape(set_size, set_size)
        for blocks, row in zip(partitions, out):
            starts = [block[0] - 1 for block in blocks]
            counts = np.add.reduceat(np.add.reduceat(pairs, starts, axis=0), starts, axis=1)
            a = counts / (reps * np.array([len(block) for block in blocks], dtype=float)[:, None])
            row.append(MisplacementMatrix(_sinkhorn((a + a.T) / 2.0)))
    return out


def estimate_alpha_for_partition(
    model: Model, set_size: int, blocks: tp.Sequence[tp.Sequence[int]], rho: float, reps: int = DC_REPS,
    seed: int = numerics.DEFAULT_SEED,
) -> MisplacementMatrix:
    """Dell-Clutter block confusion of an arbitrary consecutive partition: estimate_alphas of one pair."""
    return estimate_alphas(model, set_size, [blocks], [rho], reps, seed)[0][0]


def estimate_dell_clutter_alpha(
    model: Model, design: Design, rho: float, reps: int = DC_REPS, seed: int = numerics.DEFAULT_SEED
) -> MisplacementMatrix:
    """Misplacement matrix induced by rho-quality ranking on the design's partition (see estimate_alphas)."""
    return estimate_alpha_for_partition(model, design.set_size, design.subsets, rho, reps, seed)


def estimate_unbalanced_alphas(
    model: Model, design: Design, rho: float, reps: int = DC_REPS, seed: int = numerics.DEFAULT_SEED
) -> dict[int, MisplacementMatrix]:
    """Per-cycle misplacement matrices, cycle i calibrated at seed + i - 1; a cycle's sets share one partition."""
    seed = numerics.whole(seed, "seed", 0)  # before seed + i - 1 can take a string or make a negative seed valid
    out: dict[int, MisplacementMatrix] = {}
    for i in design.cycle_ids:
        partitions = {sp.partition for sp in design.sets if sp.cycle == i}
        if len(partitions) > 1:
            raise SamplingError(f"cycle {i} mixes partitions; Dell-Clutter calibration needs one per cycle")
        out[i] = estimate_alpha_for_partition(model, design.set_size, partitions.pop(), rho, reps, seed + i - 1)
    return out
