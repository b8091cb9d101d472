"""Random generation of ranked-set style samples and ranking-error estimation.

Every measured unit is drawn by block_draws on the quantile scale: the true
rank u has probability c_u / S, with c the rank coefficients of the judged
block's misplacement-mixed weight (densities.rank_coefficients), so source
block h comes with probability alpha[r, h] and u is uniform among h's ranks;
then t ~ Beta(u, S+1-u) and the value is the order statistic
X_(u:S) = F^{-1}(t), which has the same joint law of (value, rank) as drawing
S values, sorting them and measuring the u-th.  draw_unbalanced_pros makes one such call per judgment set
for all replications at once, and draw_pros is its one-cycle case.  The true
rank of every measured unit is recorded, which is what the complete-data
information estimators and the latent-rank diagnostics consume.

Ranking quality is modeled on the Dell and Clutter concomitant scheme: the
ranker perceives W = rho * Z + sqrt(1 - rho^2) * eps instead of the
standardized response Z, and the induced block-confusion probabilities are
tallied by simulation.
"""

from __future__ import annotations

import dataclasses
import typing as tp

import numpy as np

from . import densities, numerics
from .designs import Design, MisplacementMatrix, UnbalancedDesign, identity_alpha
from .models import Model


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

    Set r targets block r; under misplacement the measured unit comes from
    block h with probability alpha[r, h], uniformly among that block's ranks.
    This is the one-cycle unbalanced design of draw_unbalanced_pros.
    """
    ud = UnbalancedDesign.from_design(design)
    return dataclasses.replace(draw_unbalanced_pros(model, ud, {1: alpha}, seed), design_label=design.label())


def draw_unbalanced_pros(
    model: Model,
    ud: UnbalancedDesign,
    alphas: tp.Mapping[int, MisplacementMatrix | None] | None = None,
    seed: int = numerics.DEFAULT_SEED,
) -> ProsSample:
    """K measurements per replication following each set's own partition and target block.

    Each set draws all its replications at once through block_draws; rows are
    ordered by replication, then cycle, then set within the cycle.
    """
    rng = numerics.substream(seed)
    rows = ud.measured_rows(alphas)
    columns = []
    for sp, row in rows:
        x, u, _t = block_draws(model, ud.set_size, sp.partition, row, rng, ud.replications)
        columns.append((x, u, np.searchsorted([b[0] for b in sp.partition], u, side="right")))
    values, ranks, source = (np.stack(c, axis=1).ravel() for c in zip(*columns))
    cycle = np.array([sp.cycle for sp, _ in rows])
    # rows come grouped by cycle, so a set's index is its offset from its cycle's first row
    set_index = np.arange(1, len(rows) + 1) - np.searchsorted(cycle, cycle)
    reps = ud.replications
    return ProsSample(
        values=values,
        cycle=(np.arange(reps)[:, None] * cycle[-1] + cycle).ravel(),
        set_index=np.tile(set_index, reps),
        target_subset=np.tile([sp.measured for sp, _ in rows], reps),
        source_subset=source,
        true_rank=ranks,
        design_label=ud.label(),
    )


def sample_to_csv(sample: ProsSample) -> str:
    """CSV rendering: cycle,set,subset,value,true_position."""
    columns = (sample.cycle, sample.set_index, sample.target_subset, sample.values, sample.true_rank)
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return "cycle,set,subset,value,true_position\n" + "".join(
        f"{c},{s},{d},{v:.17g},{u}\n" for c, s, d, v, u in rows
    )


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
    u = 1 + np.searchsorted(cum, rng.random(count) * cum[-1], side="right")
    t = rng.beta(u, set_size + 1 - u)
    return np.asarray(model.quantile(t)), u, t


@dataclasses.dataclass(frozen=True)
class DellClutterConfig:
    """Stage-1 settings for estimating the misplacement matrix by simulation.

    :param rho: correlation between the standardized response and the ranker's
        perception; 1 is exact ranking, 0 is random ranking.
    :param reps: number of simulated judgment sets.
    :param seed: stream seed for the stage-1 draws.
    """

    rho: float
    reps: int = 5000
    seed: int = numerics.DEFAULT_SEED

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise SamplingError(f"rho must lie in [0, 1], got {self.rho!r}")
        if self.reps < 1:
            raise SamplingError(f"reps must be >= 1, got {self.reps}")


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


def estimate_alpha_for_partition(
    model: Model,
    set_size: int,
    blocks: tp.Sequence[tp.Sequence[int]],
    cfg: DellClutterConfig,
) -> MisplacementMatrix:
    """Tally Dell-Clutter block confusion for an arbitrary consecutive partition."""
    n = len(blocks)
    if n == 1:
        return identity_alpha(1)
    rng = numerics.substream(cfg.seed)

    block_of = np.empty(set_size, dtype=int)
    for idx, b in enumerate(blocks):
        block_of[np.asarray(b) - 1] = idx

    x = np.asarray(model.quantile(rng.random((cfg.reps, set_size))))
    # each set is standardized by its own sample moments; the per-set scale
    # modulates the effective perception noise and is what reproduces the
    # published efficiency curves (analytic moments run systematically low)
    z = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, ddof=1, keepdims=True)
    if cfg.rho == 1.0:
        w = z
    else:
        w = cfg.rho * z + np.sqrt(1.0 - cfg.rho**2) * rng.standard_normal(x.shape)
    # true rank within its own set (0-based) of the unit perceived at each rank
    rank_x = np.empty(x.shape, dtype=np.intp)
    np.put_along_axis(rank_x, np.argsort(x, axis=1), np.arange(set_size), axis=1)
    true_rank = np.take_along_axis(rank_x, np.argsort(w, axis=1), axis=1)
    counts = np.bincount((n * block_of + block_of[true_rank]).ravel(), minlength=n * n).reshape(n, n)
    sizes = np.array([len(b) for b in blocks], dtype=float)
    a = counts / (cfg.reps * sizes[:, None])
    a = _sinkhorn((a + a.T) / 2.0)
    return MisplacementMatrix(a)


def estimate_dell_clutter_alpha(
    model: Model, design: Design, cfg: DellClutterConfig
) -> MisplacementMatrix:
    """Misplacement matrix induced by rho-quality ranking on the design's partition.

    Every simulated unit contributes one (perceived block, true block) tally;
    the count matrix is row-normalized, symmetrized with its transpose, and
    projected to doubly stochastic form.  rho = 1 returns the exact identity.
    """
    return estimate_alpha_for_partition(model, design.set_size, design.subsets, cfg)


def estimate_unbalanced_alphas(
    model: Model, ud: UnbalancedDesign, cfg: DellClutterConfig
) -> dict[int, MisplacementMatrix]:
    """Per-cycle misplacement matrices; sets of a cycle must share their partition."""
    out: dict[int, MisplacementMatrix] = {}
    for i in ud.cycle_ids:
        plans = ud.sets_in_cycle(i)
        first = plans[0].partition
        for sp in plans[1:]:
            if sp.partition != first:
                raise SamplingError(
                    f"cycle {i} mixes partitions; per-cycle ranking-error estimation "
                    "needs one shared partition"
                )
        out[i] = estimate_alpha_for_partition(
            model, ud.set_size, first, dataclasses.replace(cfg, seed=cfg.seed + i)
        )
    return out
