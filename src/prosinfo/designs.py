"""Sampling-design descriptions: rank partitions, cycles, and misplacement matrices.

A Design is judgment sets of S units, each naming its cycle, its partition of
the ranks {1..S} into consecutive blocks and the block it measures; the sets of
a cycle share one misplacement matrix.  Balanced PROS(n, S) is the one-cycle
design of one partition into n equal blocks, each measured once, in order; RSS
is the case n = S and SRS the case n = S = 1.  Misplacement matrices quantify
the probability that a unit judged into block r actually belongs to block h;
they must be doubly stochastic.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import typing as tp

import numpy as np

from .numerics import whole


class DesignError(ValueError):
    """Invalid design description or misplacement matrix."""


def _check_partition(set_size: int, subsets: tp.Sequence[tp.Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The subsets as int tuples, built anew only if given otherwise: nonempty consecutive rank blocks covering
    1..set_size.  :raises DesignError: otherwise, or a rank that is not an integer."""
    if not len(subsets):
        raise DesignError("a design needs at least one subset")
    exact = type(subsets) is tuple  # a tuple of int tuples, kept as given
    flat: list[int] = []
    for block in subsets:
        if not len(block):
            raise DesignError("empty subset in partition")
        exact = exact and type(block) is tuple
        flat.extend(block)
    if not exact or [*map(type, flat)].count(int) != len(flat):  # a list, or a rank such as 2.0, np.int64, True
        return _check_partition(set_size, tuple(tuple(whole(u, "rank", error=DesignError) for u in b) for b in subsets))
    if flat != list(range(1, set_size + 1)):
        raise DesignError(f"subsets must be consecutive rank blocks partitioning 1..{set_size}, got {subsets!r}")
    return subsets


class SetPlan(tp.NamedTuple):
    """One judgment set: its cycle, its consecutive-block partition of {1..S}, and the block it measures (1-based)."""

    cycle: int
    partition: tuple[tuple[int, ...], ...]
    measured: int


def _check_set(cycle: int, measured: int, n: int) -> None:
    """:raises DesignError: cycle below 1, or measured outside the n blocks of the set's partition."""
    if cycle < 1:
        raise DesignError(f"cycle must be >= 1, got {cycle}")
    if not 1 <= measured <= n:
        raise DesignError(f"measured subset {measured} out of range 1..{n}")


@dataclasses.dataclass(frozen=True)
class Design:
    """Judgment sets grouped into cycles, the whole list drawn `replications` times (N).

    set_size and replications are stored as ints, and every set is normalized once, in one pass, into a SetPlan of
    ints through numerics.whole: a value of another integral type (2.0, np.int64) becomes an int, and a non-integral
    one is refused.  Each distinct partition is checked once, each set by int comparisons.  Construction works out
    each cycle's subset count, the runs of sets sharing a partition in cycle order, and is_balanced.
    """

    set_size: int
    sets: tuple[SetPlan, ...]
    replications: int = 1
    is_balanced: bool = dataclasses.field(init=False, repr=False, compare=False)
    _counts: tuple[int, ...] = dataclasses.field(init=False, repr=False, compare=False)
    _runs: tuple[tuple[tp.Any, tuple[SetPlan, ...]], ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "set_size", whole(self.set_size, "set_size", 1, DesignError))
        object.__setattr__(self, "replications", whole(self.replications, "replications", 1, DesignError))
        if not self.sets:
            raise DesignError("a design needs at least one set")
        sets = tuple(SetPlan(whole(c, "cycle", None, DesignError), p, whole(m, "measured subset", None, DesignError))
                     for c, p, m in self.sets)
        cycles, given, measured = zip(*sets)
        if given.count(given[0]) == cycles.count(1) == len(sets):  # one cycle of one partition: no per-set loop
            part = _check_partition(self.set_size, given[0])
            for m in measured if not 1 <= min(measured) <= max(measured) <= len(part) else ():
                _check_set(1, m, len(part))
            sets = sets if part is given[0] else tuple(SetPlan(1, part, m) for m in measured)
            counts, runs = {1: len(part)}, ((part, sets),)
        else:
            checked: dict[tp.Any, tp.Any] = {}  # each distinct partition, by value, checked once
            counts = {}  # each cycle's subset count, from its first set
            parts = []
            for cycle, p, m in sets:
                try:
                    part = checked.get(p) or checked.setdefault(p, _check_partition(self.set_size, p))
                except TypeError:  # a partition given as lists: unhashable until checked
                    part = _check_partition(self.set_size, p)
                n_i = counts.setdefault(cycle, len(part))
                if cycle < 1 or not 1 <= m <= n_i == len(part):
                    _check_set(cycle, m, len(part))
                    raise DesignError(f"cycle {cycle} mixes partitions with {n_i} and {len(part)} subsets")
                parts.append(part)
            counts = dict(sorted(counts.items()))
            if list(counts) != list(range(1, len(counts) + 1)):
                raise DesignError(f"cycle identifiers must be contiguous from 1, got {list(counts)}")
            sets = tuple(SetPlan(c, part, m) for c, part, m in zip(cycles, parts, measured))
            by_cycle = sorted(sets, key=operator.itemgetter(0))  # listed order within a cycle
            runs = tuple((part, tuple(run)) for part, run in itertools.groupby(by_cycle, operator.itemgetter(1)))
        part = runs[0][0]
        object.__setattr__(self, "sets", sets)
        in_order = len(runs) == 1 == len(counts) and measured == tuple(range(1, len(part) + 1))
        object.__setattr__(self, "is_balanced", in_order and len(set(map(len, part))) == 1)
        object.__setattr__(self, "_counts", tuple(counts.values()))
        object.__setattr__(self, "_runs", runs)

    @property
    def cycle_ids(self) -> tuple[int, ...]:
        return tuple(range(1, len(self._counts) + 1))

    @property
    def K(self) -> int:
        """Measured units per replication."""
        return len(self.sets)

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        """The partition every set shares.  :raises DesignError: the sets have more than one."""
        if len(self._runs) > 1:
            raise DesignError("subsets are only defined for designs whose sets share one partition")
        return self._runs[0][0]

    @property
    def n(self) -> int:
        return len(self.subsets)

    @property
    def m(self) -> int:
        if not self.is_balanced:
            raise DesignError("block size m is only defined for balanced designs")
        return len(self.subsets[0])

    def n_subsets(self, i: int) -> int:
        """Misplacement-matrix dimension for cycle i."""
        if i not in self.cycle_ids:
            raise DesignError(f"no cycle {i} in this design")
        return self._counts[i - 1]

    def measured_rows(self, alphas: tp.Mapping | None = None) -> tuple[tuple[SetPlan, np.ndarray], ...]:
        """Every set in cycle order (listed order within a cycle) with row `measured` of its cycle's matrix in
        alphas, the identity's where alphas gives none.  :raises DesignError: a stray cycle or a wrong dimension."""
        alphas = alphas or {}
        stray = alphas.keys() - range(1, len(self._counts) + 1)
        if stray:
            raise DesignError(f"misplacement matrix given for cycle {min(stray)}, which the design lacks")
        entries = [alpha_entries(alphas.get(i), n_i, i) for i, n_i in enumerate(self._counts, 1)]
        return tuple((sp, entries[sp.cycle - 1][sp.measured - 1]) for _, run in self._runs for sp in run)

    def measured_runs(self, alphas: tp.Mapping | None = None) -> list[tuple[tp.Any, np.ndarray]]:
        """The rows of measured_rows stacked per run of sets sharing a partition, as (partition, rows) pairs."""
        rows = iter(self.measured_rows(alphas))
        return [(part, np.array([row for _, row in itertools.islice(rows, len(run))])) for part, run in self._runs]

    def label(self, as_unbalanced: bool = False) -> str:
        """PROS(n, S, N) of a balanced design; UPROS(K, S, N) of any other, or of any where as_unbalanced is set."""
        if self.is_balanced and not as_unbalanced:
            return f"PROS(n={self.n}, S={self.set_size}, N={self.replications})"
        return f"UPROS(K={self.K}, S={self.set_size}, N={self.replications})"


UnbalancedDesign = Design  # the name the unbalanced routes and their callers use


def make_balanced_design(set_size: int, n: int, cycles: int = 1) -> Design:
    """PROS(n, S): blocks of size m = S/n, `cycles` replications.  :raises DesignError: n does not divide set_size."""
    set_size, n = whole(set_size, "set_size", 1, DesignError), whole(n, "n", 1, DesignError)
    cycles = whole(cycles, "cycles", 1, DesignError)
    if set_size % n:
        raise DesignError(f"n={n} does not divide set_size={set_size}; use an unbalanced design")
    blocks = tuple(zip(*[iter(range(1, set_size + 1))] * (set_size // n)))  # consecutive runs of m ranks
    return Design(set_size, tuple([SetPlan(1, blocks, r) for r in range(1, n + 1)]), cycles)


def rss_design(n: int, cycles: int = 1) -> Design:
    return make_balanced_design(n, n, cycles)


# -- misplacement matrices ---------------------------------------------------


def validate_misplacement(entries: tp.Any) -> np.ndarray:
    """Check a candidate misplacement matrix and return it as a float array.

    :raises DesignError: non-square input, a negative entry, or a row/column
        sum departing from 1 by more than 1e-9 (named by index).
    """
    a = np.atleast_2d(np.asarray(entries, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DesignError(f"misplacement matrix must be square, got shape {a.shape}")
    flat = a.ravel().tolist()  # Python floats: at a design's few subsets, cheaper than numpy's per-call cost
    if not all(map(math.isfinite, flat)):
        raise DesignError("misplacement matrix entries must be finite")
    if min(flat) < 0.0:
        r, h = divmod(flat.index(min(flat)), a.shape[1])
        raise DesignError(f"misplacement entry ({r}, {h}) is negative: {a[r, h]!r}")
    for name, sums in (("row", a.sum(axis=1)), ("column", a.sum(axis=0))):
        for i, total in enumerate(sums.tolist()):
            if abs(total - 1.0) > 1e-9:
                raise DesignError(f"{name} {i} sums {total:.10g}, expected 1 (doubly stochastic)")
    return a


class MisplacementMatrix:
    """Doubly stochastic n x n matrix of subsetting-error probabilities.

    Entry [r, h] is the probability that a unit placed into subset r by the
    ranker truly belongs to subset h (both 0-based here; row and the design
    routes take 1-based subset indices).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: tp.Any):
        a = validate_misplacement(entries)
        a.flags.writeable = False
        self._entries = a

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self._entries, dtype=dtype)

    def __getitem__(self, idx):
        return self._entries[idx]

    def row(self, r: int) -> np.ndarray:
        """Misplacement probabilities out of judged subset r (1-based)."""
        if not 1 <= r <= self.n:
            raise DesignError(f"subset index must lie in 1..{self.n}, got {r}")
        return self._entries[r - 1]

    @property
    def is_identity(self) -> bool:
        return bool(np.all(self._entries == np.eye(self.n)))

    def __repr__(self) -> str:
        return f"MisplacementMatrix({self._entries.tolist()!r})"


def identity_alpha(n: int) -> MisplacementMatrix:
    """Perfect subsetting: no misplacement."""
    return MisplacementMatrix(np.eye(whole(n, "n", 1, DesignError)))


def make_symmetric_alpha(n: int, p: float) -> MisplacementMatrix:
    """Diagonal p, all off-diagonal entries (1-p)/(n-1).

    :raises DesignError: n not an integer or below 2, or p outside [0, 1].
    """
    n = whole(n, "n", 2, DesignError)
    if not 0.0 <= p <= 1.0:
        raise DesignError(f"diagonal probability must lie in [0, 1], got {p!r}")
    off = (1.0 - p) / (n - 1)
    a = np.full((n, n), off)
    np.fill_diagonal(a, p)
    return MisplacementMatrix(a)


def alpha_entries(alpha: MisplacementMatrix | None, n: int, cycle: int = 1) -> np.ndarray:
    """The entries of a cycle's n x n misplacement matrix, whose row r - 1 is that of judged subset r; the identity
    where alpha is None (perfect ranking).
    :raises DesignError: alpha is not n x n."""
    if alpha is None:
        return np.eye(n)
    if alpha.n != n:
        raise DesignError(f"misplacement matrix is {alpha.n}x{alpha.n}, cycle {cycle} has {n} subsets")
    return alpha.entries


# -- file formats --------------------------------------------------------------


def _read_lines(path: str) -> tuple[str, ...]:
    """The lines of a UTF-8 text file; the `_*_from_lines` parsers read them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return tuple(fh)
    except UnicodeDecodeError as e:
        raise DesignError(f"{path}: {e}") from None


def parse_misplacement_csv(path: str) -> MisplacementMatrix:
    """Read an n x n misplacement matrix from a comma-separated text file."""
    return _misplacement_from_lines(path, _read_lines(path))


def _misplacement_from_lines(path: str, lines: tp.Sequence[str]) -> MisplacementMatrix:
    """The matrix in the comma-separated lines read from path; `#` starts a comment."""
    if not any(line.partition("#")[0].strip() for line in lines):
        raise DesignError(f"{path}: no misplacement matrix entries")
    try:
        a = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as e:
        raise DesignError(f"cannot read misplacement matrix from {path!r}: {e}") from e
    return MisplacementMatrix(a)


def _parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    blocks: list[tuple[int, ...]] = []
    for piece in text.split("|"):
        piece = piece.strip()
        if not piece:
            raise DesignError(f"empty block in partition {text!r}")
        if "-" in piece:
            lo_s, hi_s = piece.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise DesignError(f"descending block {piece!r} in partition {text!r}")
            blocks.append(tuple(range(lo, hi + 1)))
        else:
            blocks.append((int(piece),))
    return tuple(blocks)


def parse_design_file(path: str) -> Design:
    """Read a design: one `cycle;partition;measured` line per set.

    Partitions use `1-3|4-5|6` syntax.  Blank lines and lines starting with
    `#` are skipped.  The set size is the largest rank mentioned.  An error
    in a line names it as path:line.
    """
    return _design_from_lines(path, _read_lines(path))


def _design_from_lines(path: str, lines: tp.Sequence[str], replications: int = 1) -> Design:
    """The design in the lines read from path (see parse_design_file), drawn `replications` times."""
    plans: list[SetPlan] = []
    partitions: dict[str, tuple[tuple[int, ...], ...]] = {}  # each distinct partition text, parsed once
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(";")
        if len(parts) != 3:
            raise DesignError(f"{path}:{lineno}: expected `cycle;partition;measured`, got {line!r}")
        try:
            cycle = int(parts[0])
            partition = partitions.get(parts[1]) or partitions.setdefault(parts[1], _parse_partition(parts[1]))
            measured = int(parts[2])
            _check_set(cycle, measured, len(partition))
        except ValueError as e:
            raise DesignError(f"{path}:{lineno}: {e}") from e
        plans.append(SetPlan(cycle, partition, measured))
    if not plans:
        raise DesignError(f"{path}: no sets defined")
    set_size = max(max(map(max, partition)) for partition in partitions.values())
    return Design(set_size, tuple(plans), replications)
