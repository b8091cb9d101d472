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
standardized response Z.  estimate_alphas tallies the induced block confusion
of every requested partition at every rho from one simulated draw of sets; it
and its three one-matrix entries all take rho (or rhos), reps = DC_REPS and
seed = DEFAULT_SEED as plain arguments.
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
    if n < 1:
        raise SamplingError(f"sample size must be >= 1, got {n}")
    rng = numerics.substream(seed)
    return np.asarray(model.quantile(rng.random(n)))


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
    columns = []
    for sp, row in rows:
        with np.errstate(over="ignore", invalid="ignore"):
            x, u, _t = block_draws(model, design.set_size, sp.partition, row, rng, design.replications)
        if not np.all(np.isfinite(x)):
            raise SamplingError(f"{model.label()} gave a non-finite draw in cycle {sp.cycle}")
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


def sample_to_csv(sample: ProsSample) -> str:
    """CSV rendering: cycle,set,subset,value,true_position, every row from one % template."""
    columns = (sample.cycle, sample.set_index, sample.target_subset, sample.values, sample.true_rank)
    fields: list = [None] * (5 * len(sample))  # the columns interleaved; %s prints any index dtype as str does
    for j, col in enumerate(columns):
        fields[j::5] = np.asarray(col).tolist()
    return "cycle,set,subset,value,true_position\n" + ("%s,%s,%s,%.17g,%s\n" * len(sample)) % tuple(fields)


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


def _sinkhorn(a: np.ndarray, iterations: int = 100, tol: float = 1e-10) -> np.ndarray:
    """Project a nonnegative matrix onto the doubly stochastic set by row/column scaling."""
    a = np.array(a, dtype=float)
    for _ in range(iterations):
        a /= a.sum(axis=1, keepdims=True)
        a /= a.sum(axis=0, keepdims=True)
        if (
            np.max(np.abs(a.sum(axis=1) - 1.0)) < tol
            and np.max(np.abs(a.sum(axis=0) - 1.0)) < tol
        ):
            break
    # final row normalization keeps row sums exactly 1 within float error
    a /= a.sum(axis=1, keepdims=True)
    return a


def estimate_alphas(
    model: Model, set_size: int, partitions: tp.Sequence[tp.Sequence[tp.Sequence[int]]], rhos: tp.Sequence[float],
    reps: int = DC_REPS, seed: int = numerics.DEFAULT_SEED,
) -> list[list[MisplacementMatrix]]:
    """Dell-Clutter matrices out[i][j] of partitions[i] at rhos[j], all tallied from one draw of reps sets at seed.

    Every simulated unit contributes one (perceived block, true block) count; the counts are row-normalized,
    symmetrized with their transpose and projected to doubly stochastic form, and rho = 1 gives the identity.
    Each rho sorts the perceptions once for every partition, so an entry equals a call with its pair alone.

    :raises SamplingError: a rho outside [0, 1], or reps below 1.
    :raises DesignError: a partition is not consecutive blocks covering 1..set_size.
    """
    for rho in rhos:
        if not 0.0 <= rho <= 1.0:  # 1 is exact ranking, 0 random ranking
            raise SamplingError(f"rho must lie in [0, 1], got {rho!r}")
    if reps < 1:
        raise SamplingError(f"reps must be >= 1, got {reps}")
    partitions = [_check_partition(set_size, blocks) for blocks in partitions]
    if all(len(blocks) == 1 for blocks in partitions):
        return [[identity_alpha(1)] * len(rhos) for _ in partitions]
    rng = numerics.substream(seed)

    # each set is standardized by its own sample moments; the per-set scale
    # modulates the effective perception noise and is what reproduces the
    # published efficiency curves (analytic moments run systematically low).
    # Location and scale cancel in that standardization, and the ranks are the
    # same on either scale, so the sets are drawn on the standard member, whose
    # values keep their precision where mu dwarfs sigma.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.asarray(model.standard()[0].quantile(rng.random((reps, set_size))))
        z = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, ddof=1, keepdims=True)
    if not np.all(np.isfinite(z)):
        raise SamplingError(f"Dell-Clutter ranking: {model.label()} gave a set of non-finite standardized values")
    noise = rng.standard_normal(x.shape) if any(rho < 1.0 for rho in rhos) else None
    # true rank within its own set (0-based) of each unit
    rank_x = np.empty(x.shape, dtype=np.intp)
    np.put_along_axis(rank_x, np.argsort(x, axis=1), np.arange(set_size), axis=1)
    out: list[list[MisplacementMatrix]] = [[] for _ in partitions]
    for rho in rhos:
        w = z if rho == 1.0 else rho * z + np.sqrt(1.0 - rho**2) * noise
        true_rank = np.take_along_axis(rank_x, np.argsort(w, axis=1), axis=1)
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
    out: dict[int, MisplacementMatrix] = {}
    for i in design.cycle_ids:
        partitions = {sp.partition for sp in design.sets if sp.cycle == i}
        if len(partitions) > 1:
            raise SamplingError(f"cycle {i} mixes partitions; Dell-Clutter calibration needs one per cycle")
        out[i] = estimate_alpha_for_partition(model, design.set_size, partitions.pop(), rho, reps, seed + i - 1)
    return out
