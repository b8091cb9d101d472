"""Sampling-design descriptions: rank partitions, cycles, and misplacement matrices.

A balanced design PROS(n, S) partitions the ranks {1..S} of each size-S set
into n consecutive blocks and measures one unit per block; RSS is the special
case n = S and SRS the case n = S = 1.  Unbalanced designs let every judgment
set carry its own partition and its own measured block.  Misplacement matrices
quantify the probability that a unit judged into block r actually belongs to
block h; they must be doubly stochastic.
"""

from __future__ import annotations

import dataclasses
import math
import typing as tp

import numpy as np


class DesignError(ValueError):
    """Invalid design description or misplacement matrix."""


def _check_partition(set_size: int, subsets: tuple[tuple[int, ...], ...]) -> None:
    """Subsets must be nonempty consecutive rank blocks covering 1..set_size in order."""
    if not subsets:
        raise DesignError("a design needs at least one subset")
    flat: list[int] = []
    for block in subsets:
        if not block:
            raise DesignError("empty subset in partition")
        flat.extend(block)
    if flat != list(range(1, set_size + 1)):
        raise DesignError(f"subsets must be consecutive rank blocks partitioning 1..{set_size}, got {subsets!r}")


@dataclasses.dataclass(frozen=True)
class Design:
    """Balanced-or-not PROS design: one shared partition, one measurement per subset per cycle.

    :param set_size: number of units S in each judgment set.
    :param subsets: ordered partition of ranks {1..S} into consecutive blocks.
    :param cycles: number of cycle repetitions N.
    """

    set_size: int
    subsets: tuple[tuple[int, ...], ...]
    cycles: int = 1

    def __post_init__(self) -> None:
        if self.set_size < 1:
            raise DesignError(f"set_size must be >= 1, got {self.set_size}")
        if self.cycles < 1:
            raise DesignError(f"cycles must be >= 1, got {self.cycles}")
        object.__setattr__(self, "subsets", tuple(tuple(int(u) for u in block) for block in self.subsets))
        _check_partition(self.set_size, self.subsets)

    @property
    def n(self) -> int:
        return len(self.subsets)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.subsets)

    @property
    def is_balanced(self) -> bool:
        sizes = self.block_sizes
        return all(m == sizes[0] for m in sizes)

    @property
    def m(self) -> int:
        if not self.is_balanced:
            raise DesignError("block size m is only defined for balanced designs")
        return len(self.subsets[0])

    def subset(self, r: int) -> tuple[int, ...]:
        """Ranks of subset r (1-based)."""
        if not 1 <= r <= self.n:
            raise DesignError(f"subset index must lie in 1..{self.n}, got {r}")
        return self.subsets[r - 1]

    def label(self) -> str:
        return f"PROS(n={self.n}, S={self.set_size}, N={self.cycles})"


def make_balanced_design(set_size: int, n: int, cycles: int = 1) -> Design:
    """PROS(n, S) with consecutive blocks of equal size m = S/n.

    :raises DesignError: n does not divide set_size.
    """
    if n < 1 or set_size < 1:
        raise DesignError("set_size and n must be >= 1")
    if set_size % n:
        raise DesignError(f"n={n} does not divide set_size={set_size}; use an unbalanced design")
    m = set_size // n
    blocks = tuple(tuple(range((r - 1) * m + 1, r * m + 1)) for r in range(1, n + 1))
    return Design(set_size=set_size, subsets=blocks, cycles=cycles)


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
    if n < 1:
        raise DesignError("dimension must be >= 1")
    return MisplacementMatrix(np.eye(n))


def make_symmetric_alpha(n: int, p: float) -> MisplacementMatrix:
    """Diagonal p, all off-diagonal entries (1-p)/(n-1).

    :raises DesignError: n < 2 or p outside [0, 1].
    """
    if n < 2:
        raise DesignError("symmetric misplacement needs n >= 2")
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


# -- unbalanced designs -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SetPlan:
    """One judgment set: its cycle, its rank partition, and the block it measures.

    :param cycle: 1-based cycle identifier; sets sharing a cycle share a
        misplacement matrix.
    :param partition: ordered consecutive-block partition of {1..S}.
    :param measured: 1-based index of the block this set's measurement is
        judged to come from.
    """

    cycle: int
    partition: tuple[tuple[int, ...], ...]
    measured: int

    def __post_init__(self) -> None:
        if self.cycle < 1:
            raise DesignError(f"cycle must be >= 1, got {self.cycle}")
        object.__setattr__(self, "partition", tuple(tuple(int(u) for u in block) for block in self.partition))
        if not 1 <= self.measured <= len(self.partition):
            raise DesignError(f"measured subset {self.measured} out of range 1..{len(self.partition)}")


@dataclasses.dataclass(frozen=True)
class UnbalancedDesign:
    """A collection of judgment sets grouped into cycles, replicated as a whole.

    Within a cycle every set must partition the ranks into the same number of
    blocks, so a single misplacement matrix applies to the cycle.
    """

    set_size: int
    sets: tuple[SetPlan, ...]
    replications: int = 1

    def __post_init__(self) -> None:
        if self.set_size < 1:
            raise DesignError(f"set_size must be >= 1, got {self.set_size}")
        if self.replications < 1:
            raise DesignError(f"replications must be >= 1, got {self.replications}")
        if not self.sets:
            raise DesignError("an unbalanced design needs at least one set")
        object.__setattr__(self, "sets", tuple(self.sets))
        for partition in dict.fromkeys(sp.partition for sp in self.sets):  # each distinct partition once
            _check_partition(self.set_size, partition)
        counts: dict[int, int] = {}
        for sp in self.sets:
            n_i = counts.setdefault(sp.cycle, len(sp.partition))
            if n_i != len(sp.partition):
                raise DesignError(f"cycle {sp.cycle} mixes partitions with {n_i} and {len(sp.partition)} subsets")
        ids = sorted(counts)
        if ids != list(range(1, len(ids) + 1)):
            raise DesignError(f"cycle identifiers must be contiguous from 1, got {ids}")

    @property
    def K(self) -> int:
        """Measured units per replication."""
        return len(self.sets)

    @property
    def cycle_ids(self) -> tuple[int, ...]:
        return tuple(sorted({sp.cycle for sp in self.sets}))

    def sets_in_cycle(self, i: int) -> tuple[SetPlan, ...]:
        chosen = tuple(sp for sp in self.sets if sp.cycle == i)
        if not chosen:
            raise DesignError(f"no cycle {i} in this design")
        return chosen

    def n_subsets(self, i: int) -> int:
        """Misplacement-matrix dimension for cycle i."""
        return len(self.sets_in_cycle(i)[0].partition)

    def measured_rows(
        self, alphas: tp.Mapping[int, MisplacementMatrix | None] | None = None
    ) -> tuple[tuple[SetPlan, np.ndarray], ...]:
        """Every set, in cycle order, with the misplacement row of the block it measures.

        Sets keep their listed order within a cycle.  A cycle that alphas
        gives no matrix (or None) is ranked perfectly: its row is the identity's.

        :raises DesignError: alphas names a cycle the design lacks, or a
            matrix's dimension differs from its cycle's number of subsets.
        """
        alphas = alphas or {}
        stray = sorted(set(alphas) - set(self.cycle_ids))
        if stray:
            raise DesignError(f"misplacement matrix given for cycle {stray[0]}, which the design lacks")
        entries = {i: alpha_entries(alphas.get(i), self.n_subsets(i), i) for i in self.cycle_ids}
        return tuple((sp, entries[i][sp.measured - 1]) for i in self.cycle_ids for sp in self.sets_in_cycle(i))

    def label(self) -> str:
        return f"UPROS(K={self.K}, S={self.set_size}, N={self.replications})"

    @classmethod
    def from_design(cls, design: Design) -> "UnbalancedDesign":
        """View a shared-partition design as the equivalent unbalanced one."""
        plans = tuple(SetPlan(cycle=1, partition=design.subsets, measured=r) for r in range(1, design.n + 1))
        return cls(set_size=design.set_size, sets=plans, replications=design.cycles)


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


def parse_design_file(path: str) -> UnbalancedDesign:
    """Read an unbalanced design: one `cycle;partition;measured` line per set.

    Partitions use `1-3|4-5|6` syntax.  Blank lines and lines starting with
    `#` are skipped.  The set size is the largest rank mentioned.
    """
    return _design_from_lines(path, _read_lines(path))


def _design_from_lines(path: str, lines: tp.Sequence[str]) -> UnbalancedDesign:
    """The unbalanced design in the lines read from path (see parse_design_file)."""
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
        except ValueError as e:
            raise DesignError(f"{path}:{lineno}: {e}") from e
        plans.append(SetPlan(cycle=cycle, partition=partition, measured=measured))
    if not plans:
        raise DesignError(f"{path}: no sets defined")
    set_size = max(max(map(max, partition)) for partition in partitions.values())
    return UnbalancedDesign(set_size=set_size, sets=tuple(plans))
