"""Command-line front end: benchmark tables as CSV/Markdown plus ad-hoc reports.

`prosinfo table ID` regenerates one of the published relative-efficiency
tables; `fisher`, `entropy`, and `sample` expose the underlying computations
directly.  Each setting comes from its flag alone.  Each subcommand declares
only the flags it can read, and refuses a flag that the rest of the request
leaves unread.  A `fisher` report's re2 compares one cycle of the design with
one RSS(n) cycle under the same --alpha.  Exit codes: 0 success, 2 validation
error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import threading
import typing as tp

import numpy as np

from . import entropy as entropy_lib
from . import densities, designs, information, numerics, sampling
from .information import InformationError, relative_efficiencies
from .designs import (
    Design,
    DesignError,
    MisplacementMatrix,
    SetPlan,
    make_balanced_design,
    make_symmetric_alpha,
    rss_design,
    _parse_partition,
)
from .entropy import EntropyError
from .models import Model, ModelError, family_names, make_model
from .sampling import SamplingError

__all__ = ["RunConfig", "TableCell", "run_table", "run_custom", "cells_to_csv", "cells_to_markdown", "main"]

TABLE_IDS = (2, 3, 4, 5, 6, 7, 8, 10)
P_GRID = tuple(round(0.1 * i, 1) for i in range(11))
RHO_GRID = (0.25, 0.50, 0.75, 0.90, 1.00)
DC_TABLES = (5, 6, 10)  # the tables whose columns are Dell-Clutter rho levels, calibrated at --seed
REPORT_MEMO_BYTES = 4 << 20  # bound on the characters of the reports run_custom keeps (ASCII, so bytes)

# (S, n, N) rows of the fixed-set-size comparisons, as printed
_FIXED6_ROWS = ((4, 2, 3), (6, 2, 3), (6, 3, 2), (6, 6, 1), (8, 2, 3), (12, 2, 3), (12, 3, 2), (12, 6, 1))
_FIXED12_ROWS = ((6, 2, 6), (6, 3, 4), (12, 2, 6), (12, 3, 4), (12, 4, 3), (12, 6, 2), (12, 12, 1))
# the ranked-against-RSS table drops the degenerate PROS(6,6) row
_FIXED6_DC_ROWS = tuple(r for r in _FIXED6_ROWS if r != (6, 6, 1))

_UNBALANCED_PARTITIONS = (
    "1-5|6", "1-4|5-6", "1-3|4-6", "1-2|3-6", "1|2-6", "1|2|3-6", "1|2-3|4-6",
    "1|2-4|5-6", "1|2-5|6", "1-2|3-5|6", "1-2|3-4|5-6", "1-3|4|5-6", "1-3|4-5|6", "1-4|5|6",
)

_MIXTURE_ROWS = ((0.3, 1.0 / 3.0), (0.3, 1.0 / 9.0), (0.9, 1.0 / 3.0), (0.9, 1.0 / 9.0))


class CLIError(ValueError):
    """Invalid command-line request."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one invocation."""

    subcommand: str
    family: str = "normal"
    params: tuple[tuple[str, float], ...] = ()
    active: tuple[str, ...] | None = None
    set_size: int | None = None
    subsets: int | None = None
    cycles: int = 1
    design_file: str | None = None
    alpha: str = "perfect"
    mode: str = "marginal"
    measure: str = "shannon"
    order: float | None = None
    kind: str = "pros"
    method: str = "quadrature"
    reps: int = information.DEFAULT_REPS
    seed: int = numerics.DEFAULT_SEED
    workers: int = 1
    fmt: str = "csv"
    output: str | None = None


@dataclasses.dataclass(frozen=True)
class TableCell:
    """One emitted table entry."""

    row_label: str
    col_label: str
    estimate: float
    mc_stderr: float
    method: str


def _fixed(value: float) -> str:
    """value to six decimals; a value that rounds to zero prints without a sign."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _csv(header: tp.Sequence[str], rows: tp.Iterable[tp.Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _markdown(header: tp.Sequence[str], rows: tp.Iterable[tp.Sequence[str]]) -> str:
    return "".join("|" + "|".join(row) + "|\n" for row in (header, ["---"] * len(header), *rows))


def cells_to_csv(cells: tp.Sequence[TableCell]) -> str:
    rows = ([c.row_label, c.col_label, _fixed(c.estimate), _fixed(c.mc_stderr), c.method] for c in cells)
    return _csv(["row_label", "col_label", "estimate", "mc_stderr", "method"], rows)


def cells_to_markdown(cells: tp.Sequence[TableCell]) -> str:
    """Pivot to the paper's visual layout: one row per row_label, rows and columns in order of first appearance."""
    rows: dict[str, dict[str, str]] = {}
    cols: dict[str, None] = {}
    for c in cells:
        rows.setdefault(c.row_label, {})[c.col_label] = f"{c.estimate:.4f}"
        cols[c.col_label] = None
    return _markdown([" ", *cols], ([r, *(values.get(c, "") for c in cols)] for r, values in rows.items()))


# -- table generation -----------------------------------------------------------


def _table2_cells() -> list[TableCell]:
    """Leading coefficients of det(I + (S-1)K)/det I, the complete-data efficiency, with K = k_matrix(model, 1, 2).

    re1_lin is tr(adj(I)K)/det I, K/I for one parameter; the scale row of the
    extreme-value family prints its numerator unnormalized, as published.
    Two-parameter rows add re1_quad = det K/det I.  Every row also evaluates
    the efficiency against RSS at (S, n) = (6, 2).
    """
    families, named = ("normal", "logistic", "extreme_value"), {"mu": "location", "sigma": "scale"}
    rows = [("exponential scale", make_model("exponential", active=("sigma",)))]
    rows += [(f"{fam} {named[param]}", make_model(fam, active=(param,))) for fam in families for param in named]
    rows += [(f"gamma(shape={k}) scale", make_model("gamma", active=("sigma",), shape=float(k))) for k in (2, 3, 4, 10)]
    rows += [(f"{fam} location+scale", make_model(fam)) for fam in families]
    cells: list[TableCell] = []
    for label, model in rows:
        i, k = model.fisher_srs_unit().entries.tolist(), information.k_matrix(model, 1, 2).entries.tolist()
        # tr(adj(I)K) = d/dc det(I + cK) at c = 0: the sum of the determinants of I with one row taken from K
        trace = sum(numerics.det_rows([k[r] if r == j else i[r] for r in range(len(i))]) for j in range(len(i)))
        det_unit = numerics.det_rows(i)
        lin = [("re1_lin", trace if label == "extreme_value scale" else trace / det_unit)]
        quad = [("re1_quad", numerics.det_rows(k) / det_unit)] if len(i) == 2 else []
        re2 = [("re2(S=6,n=2)", relative_efficiencies(*(information.fi_pros_complete(model, 2, S) for S in (6, 2))))]
        cells += [TableCell(label, col, value, 0.0, "quadrature") for col, value in lin + quad + re2]
    return cells


_DC_METHOD = f"dellclutter({sampling.DC_REPS})+quadrature"


class _Grid(tp.NamedTuple):
    """A table's misplacement levels, their labels, and the method that names their source."""

    levels: tuple[float, ...]
    column: str  # format of one level's column label
    method: str  # _DC_METHOD for calibrated rho levels, else quadrature under symmetric p levels

    def alphas(
        self, model: Model, set_size: int, partitions: list[tuple[tuple[int, ...], ...]], seed: int
    ) -> list[list[MisplacementMatrix]]:
        """The matrix of partitions[i] at levels[j] as [i][j]; calibrated levels share one draw of sets."""
        if self.method == _DC_METHOD:
            return sampling.estimate_alphas(model, set_size, partitions, self.levels, seed=seed)
        return [[make_symmetric_alpha(len(partition), p) for p in self.levels] for partition in partitions]


_P_COLUMNS = _Grid(P_GRID, "p={:.1f}", "quadrature")
_RHO_COLUMNS = _Grid(RHO_GRID, "rho={:.2f}", _DC_METHOD)
_Info = dict[tuple[Model, Design, float], numerics.InfoMatrix]


def _level_infos(pairs: tp.Iterable[tuple[Model, Design]], grid: _Grid, seed: int) -> _Info:
    """Information of each (model, design) at every level, from one alphas call per (model, S)."""
    groups: dict[tuple[Model, int], dict[Design, None]] = {}  # the distinct designs of each (model, S), in order
    for model, design in pairs:
        groups.setdefault((model, design.set_size), {})[design] = None
    info: _Info = {}
    for (model, set_size), designs in groups.items():
        alphas = grid.alphas(model, set_size, [d.subsets for d in designs], seed)
        for design, row in zip(designs, alphas):
            for level, alpha in zip(grid.levels, row):
                info[model, design, level] = information.fi_unbalanced(model, design, {1: alpha}).matrix
    return info


# row label, model, the (column prefix, design) pairs of the row, which share one n, and the denominator of every
# cell: None for SRS(n), else a design whose information is taken at the cell's level
_Row = tuple[str, Model, tuple[tuple[str, Design], ...], Design | None]


def _ratio_cells(rows: tp.Sequence[_Row], grid: _Grid, seed: int) -> list[TableCell]:
    """Determinant ratio of each row's designs over its denominator at every level, in row, design, level order."""
    pairs = [(model, d) for _, model, designs, den in rows for _, d in (*designs, ("", den)) if d is not None]
    info = _level_infos(pairs, grid, seed)
    cells: list[TableCell] = []
    for label, model, designs, den in rows:
        srs = information.fisher_srs(model, designs[0][1].n) if den is None else None
        for prefix, design in designs:
            for level in grid.levels:
                over = srs if den is None else info[model, den, level]
                ratio = relative_efficiencies(info[model, design, level], over)
                cells.append(TableCell(label, prefix + grid.column.format(level), ratio, 0.0, grid.method))
    return cells


def _re_rows(rows: tp.Iterable[tuple[str, Model, tuple[tuple[str, Design], ...]]]) -> list[_Row]:
    """Each row of designs that share one n as an RE1 row against SRS(n), then an RE2 row against RSS(n)."""
    return [
        (f"{label} {name}", model, designs, den)
        for label, model, designs in rows
        for name, den in (("RE1", None), ("RE2", rss_design(designs[0][1].n)))
    ]


def _same_size_rows(models: tp.Sequence[tuple[str, Model]], set_sizes: tp.Sequence[int]) -> list[_Row]:
    """PROS(S, n) for n = 2, 3; a column names S only when the row spans several."""
    named = len(set_sizes) > 1
    designs = {n: tuple((f"S={S} " if named else "", make_balanced_design(S, n)) for S in set_sizes) for n in (2, 3)}
    return _re_rows((f"{base} n={n}", model, designs[n]) for base, model in models for n in (2, 3))


def _fixed_rss_rows(comparisons: tp.Sequence[tuple[int, tp.Sequence[tuple[int, int, int]]]]) -> list[_Row]:
    """PROS(S, n) over N cycles against RSS of a fixed set size, per family."""
    return [
        (f"{fam} S={S} n={n} N={N} vs RSS({fixed})", model, (("", make_balanced_design(S, n, cycles=N)),),
         rss_design(fixed))
        for fam, model in _family_models()
        for fixed, sizes in comparisons
        for S, n, N in sizes
    ]


def _family_models() -> list[tuple[str, Model]]:
    return [(fam, make_model(fam)) for fam in ("normal", "exponential", "logistic")]


def _mixture_models() -> list[tuple[str, Model]]:
    return [(f"exp_mixture(pi={pi:g},h={h:.4g})", make_model("exp_mixture", pi=pi, h=h)) for pi, h in _MIXTURE_ROWS]


def _partition_rows() -> list[_Row]:
    """Single-partition unbalanced designs of set size 6, normal parent: one set per block, measuring it."""
    model, partitions = make_model("normal"), map(_parse_partition, _UNBALANCED_PARTITIONS)
    designs = (Design(6, tuple(SetPlan(1, blocks, r) for r in range(1, len(blocks) + 1))) for blocks in partitions)
    return _re_rows((text, model, (("", design),)) for text, design in zip(_UNBALANCED_PARTITIONS, designs))


def run_table(table_id: int, cfg: RunConfig) -> list[TableCell]:
    """Cells of one benchmark table, in the printed row/column order.

    The DC_TABLES calibrate their misplacement matrices from one draw of
    sampling.DC_REPS judgment sets per (model, S) at cfg.seed; the others use quadrature only.
    """
    rows: dict[int, tp.Callable[[], list[_Row]]] = {
        3: lambda: _same_size_rows(_family_models(), (6,)),
        4: lambda: _same_size_rows(_family_models(), (12,)),
        5: lambda: _same_size_rows(_family_models() + _mixture_models(), (6, 12)),
        6: lambda: _fixed_rss_rows(((6, _FIXED6_DC_ROWS), (12, _FIXED12_ROWS))),
        7: lambda: _fixed_rss_rows(((6, _FIXED6_ROWS),)),
        8: lambda: _fixed_rss_rows(((12, _FIXED12_ROWS),)),
        10: _partition_rows,
    }
    if table_id == 2:
        return _table2_cells()
    if table_id not in rows:
        raise CLIError(f"unknown table id {table_id}; valid ids are {', '.join(map(str, TABLE_IDS))}")
    return _ratio_cells(rows[table_id](), _RHO_COLUMNS if table_id in DC_TABLES else _P_COLUMNS, cfg.seed)


# -- ad-hoc subcommands ----------------------------------------------------------


def _build_model(cfg: RunConfig) -> Model:
    return make_model(cfg.family, active=cfg.active, **dict(cfg.params))


def _parse_alpha_spec(text: str) -> tuple[str, float | str | None]:
    if text == "perfect":
        return "perfect", None
    for prefix in ("symmetric", "dellclutter"):
        if text.startswith(prefix + ":"):
            raw = text[len(prefix) + 1 :]
            try:
                value = float(raw)
            except ValueError:
                raise CLIError(f"--alpha {prefix}:VALUE needs a number, got {raw!r}") from None
            return prefix, value
    if os.path.exists(text):
        return "file", text
    raise CLIError(f"--alpha must be perfect, symmetric:p, dellclutter:rho, or an existing file; got {text!r}")


class _Inputs(tp.NamedTuple):
    """What a request reads beyond its settings, parsed by run_custom from one read of each file."""

    alpha: tuple[str, float | MisplacementMatrix | None]  # the --alpha kind and its level, or the file's matrix
    design: Design | None  # the --design-file design over --cycles replications


def _alphas(cfg: RunConfig, inputs: _Inputs, model: Model, ud: Design) -> dict[int, MisplacementMatrix]:
    """Per-cycle misplacement matrices of --alpha; none under perfect ranking.

    A Dell-Clutter matrix of cycle i is calibrated at --seed + i - 1, so a
    one-cycle design file gets the matrix of the balanced request.
    """
    kind, value = inputs.alpha
    if kind == "perfect":
        return {}
    if kind == "symmetric":
        return {i: make_symmetric_alpha(ud.n_subsets(i), tp.cast(float, value)) for i in ud.cycle_ids}
    if kind == "dellclutter":
        return sampling.estimate_unbalanced_alphas(model, ud, tp.cast(float, value), seed=cfg.seed)
    return {i: tp.cast(MisplacementMatrix, value) for i in ud.cycle_ids}


def _balanced_design(cfg: RunConfig) -> Design:
    if cfg.set_size is None or cfg.subsets is None:
        hint = " (or pass --design-file)" if "--design-file" in _SUBCOMMANDS[cfg.subcommand][2] else ""
        raise CLIError("--set-size and --subsets are required" + hint)
    return make_balanced_design(cfg.set_size, cfg.subsets, cycles=cfg.cycles)


def _report_lines(pairs: tp.Sequence[tuple[str, str]], fmt: str) -> str:
    if fmt in ("csv", "md"):
        return (_csv if fmt == "csv" else _markdown)(["quantity", "value"], pairs)
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def _fi_entry_pairs(fi: information.FIResult, names: tp.Sequence[str]) -> list[tuple[str, str]]:
    """One (fi[a,b], value) pair per upper-triangle entry in numerics.TRIU order, with its se under Monte Carlo."""
    se = fi.std_errors
    return [
        (f"fi[{names[j]},{names[k]}]", _fixed(fi.matrix[j, k]) + ("" if se is None else f" (se {_fixed(se[j, k])})"))
        for j, k in zip(*numerics.TRIU[fi.p])
    ]


def _rss_report_info(cfg: RunConfig, inputs: _Inputs, model: Model, n: int) -> numerics.InfoMatrix:
    """Information of one RSS(n) cycle under the run's --alpha, the denominator of the reported re2."""
    rss = rss_design(n)
    return information.fi_unbalanced(model, rss, _alphas(cfg, inputs, model, rss)).matrix


def _run_fisher(cfg: RunConfig, inputs: _Inputs) -> str:
    model = _build_model(cfg)
    common = dict(method=cfg.method, reps=cfg.reps, seed=cfg.seed, workers=cfg.workers)
    if cfg.mode not in ("complete", "marginal", "unbalanced"):
        raise CLIError(f"--mode must be complete, marginal, or unbalanced, got {cfg.mode!r}")
    if cfg.mode == "complete":  # complete data knows every unit's rank, so it reads no --alpha and no design file
        inputs = _Inputs(("perfect", None), None)
    elif cfg.mode == "unbalanced" and inputs.design is None:
        raise CLIError("unbalanced mode needs --design-file")
    design = inputs.design or _balanced_design(cfg)
    if cfg.mode == "complete":
        fi = information.fi_pros_complete(model, design.n, design.set_size, design.replications, **common)
    elif inputs.design is None:
        fi = information.fi_pros_marginal(model, design, _alphas(cfg, inputs, model, design).get(1), **common)
    else:
        fi = information.fi_unbalanced(model, design, _alphas(cfg, inputs, model, design), **common)
    count = design.K * design.replications
    block_counts = {design.n_subsets(i) for i in design.cycle_ids}
    re2 = []
    if len(block_counts) == 1:  # one cycle of n blocks against one RSS(n) cycle
        n = block_counts.pop()
        rss = _rss_report_info(cfg, inputs, model, n)
        re2 = [("re2", _fixed(relative_efficiencies(fi.matrix.scaled(n / count), rss)))]
    re1 = relative_efficiencies(fi.matrix, information.fisher_srs(model, count))
    pairs = [("model", model.label()), ("design", fi.design_label), ("method", fi.method)]
    pairs += _fi_entry_pairs(fi, model.active) + [("det", _fixed(fi.det())), ("re1", _fixed(re1))] + re2
    return _report_lines(pairs, cfg.fmt)


def _run_entropy(cfg: RunConfig, inputs: _Inputs) -> str:
    model = _build_model(cfg)
    if cfg.measure == "kl":
        design = _balanced_design(cfg)
        value = entropy_lib.kl_pros_srs(model, design)
        pairs = [("model", model.label()), ("design", design.label()), ("kl(pros,srs)", _fixed(value))]
        return _report_lines(pairs, cfg.fmt)
    n = cfg.subsets if cfg.subsets is not None else 1
    if cfg.measure == "shannon":
        report = entropy_lib.shannon(model, cfg.kind, n, cfg.set_size)
    elif cfg.measure == "renyi":
        if cfg.order is None:
            raise CLIError("renyi needs --order in (0, 1)")
        report = entropy_lib.renyi(model, cfg.order, cfg.kind, n, cfg.set_size)
    else:
        raise CLIError(f"--measure must be shannon, renyi, or kl, got {cfg.measure!r}")
    pairs = [("model", report.model_label), ("design", report.design_label), ("measure", cfg.measure)]
    pairs += [(f"subset {i}", _fixed(h)) for i, h in enumerate(report.per_subset, start=1)]
    pairs += [(name, _fixed(getattr(report, name))) for name in ("total", "lower_bound", "upper_bound")]
    return _report_lines(pairs, cfg.fmt)


def _run_sample(cfg: RunConfig, inputs: _Inputs) -> str:
    model = _build_model(cfg)
    ud = inputs.design or _balanced_design(cfg)
    return sampling.sample_to_csv(sampling.draw_unbalanced_pros(model, ud, _alphas(cfg, inputs, model, ud), cfg.seed))


class _ReportMemo:
    """Rendered reports by request; past REPORT_MEMO_BYTES characters the least recently used go first.

    The lock guards the dict alone and is never held while a report is
    computed, so concurrent requests run side by side.
    """

    def __init__(self) -> None:
        self.texts: dict[tp.Hashable, str] = {}  # the most recently used comes last
        self.chars = 0
        self.lock = threading.Lock()

    def get(self, key: tp.Hashable) -> str | None:
        with self.lock:
            text = self.texts.pop(key, None)
            if text is not None:
                self.texts[key] = text
        return text

    def put(self, key: tp.Hashable, text: str) -> None:
        if len(text) > REPORT_MEMO_BYTES:
            return
        with self.lock:
            self.chars += len(text) - len(self.texts.pop(key, ""))
            self.texts[key] = text
            while self.chars > REPORT_MEMO_BYTES:
                self.chars -= len(self.texts.pop(next(iter(self.texts))))


_REPORTS = _ReportMemo()


def run_custom(cfg: RunConfig) -> str:
    """Dispatch a non-table subcommand and return its rendered output.

    Only here are the request's files read, an --alpha file and --design-file, each once.  A request
    repeated with the same settings and the same lines in its files returns the report kept from its first
    run and parses nothing; else the lines are parsed once, before the runner starts, into the record it
    computes from.  A request that raised kept nothing.
    """
    runners = {"fisher": _run_fisher, "entropy": _run_entropy, "sample": _run_sample}
    if cfg.subcommand not in runners:
        raise CLIError(f"unknown subcommand {cfg.subcommand!r}")
    kind, value = _parse_alpha_spec(cfg.alpha)
    paths = (tp.cast(str, value) if kind == "file" else None, cfg.design_file)
    alpha_lines, design_lines = (None if path is None else designs._read_lines(path) for path in paths)
    # the settings' repr keeps apart values that compare equal but print apart (-0.0 and 0.0)
    key = (repr(cfg), alpha_lines, design_lines)
    text = _REPORTS.get(key)
    if text is None:
        if alpha_lines is not None:
            value = designs._misplacement_from_lines(paths[0], alpha_lines)
        # the file fixes S and every partition, and --cycles replicates it
        design = None if design_lines is None else designs._design_from_lines(paths[1], design_lines, cfg.cycles)
        text = runners[cfg.subcommand](cfg, _Inputs((kind, value), design))
        _REPORTS.put(key, text)
    return text


# -- argument parsing ------------------------------------------------------------


def _parse_params(text: str) -> tuple[tuple[str, float], ...]:
    if not text:
        return ()
    out: dict[str, float] = {}
    for i, piece in enumerate(text.split(","), start=1):
        piece = piece.strip()
        name, eq, raw = piece.partition("=")
        name = name.strip()
        if not eq:
            raise CLIError(f"--params entry {i} ({piece!r}) must look like name=value")
        if name in out:
            raise CLIError(f"--params entry {i} ({piece!r}) repeats the name {name!r}")
        try:
            out[name] = float(raw)
        except ValueError:
            raise CLIError(f"--params entry {i}: {raw!r} is not a number") from None
    return tuple(out.items())


class _Parser(argparse.ArgumentParser):
    """Reports a parse error in one stderr line."""

    def error(self, message: str) -> tp.NoReturn:
        self.exit(2, f"error: {message}\n")


# add_argument keywords of every flag; a flag not given takes its RunConfig field's default
_FLAGS: dict[str, dict[str, tp.Any]] = {
    "--output": dict(help="write here instead of stdout"),
    **{flag: dict(type=int) for flag in ("--seed", "--reps", "--set-size", "--subsets", "--cycles")},
    "--workers": dict(type=int, help="Monte Carlo worker threads, capped by chunks and CPUs; same bytes at any count"),
    "--method": dict(choices=("quadrature", "mc")),
    "--family": dict(choices=family_names()),
    "--params": dict(help="comma-separated name=value pairs"),
    "--active": dict(help="comma-separated parameter names"),
    "--design-file": {},
    "--mode": dict(choices=("complete", "marginal", "unbalanced")),
    "--alpha": dict(help="perfect | symmetric:p | dellclutter:rho | file"),
    "--measure": dict(choices=("shannon", "renyi", "kl")),
    "--order": dict(type=float, help="Renyi order in (0, 1)"),
    "--kind": dict(choices=("srs", "rss", "pros")),
}

_MODEL_DESIGN = ("--family", "--params", "--set-size", "--subsets")
# subcommand: (help, its --format choices with the default first, the flags it reads besides --output)
_SUBCOMMANDS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "table": ("regenerate a benchmark table", ("csv", "md"), ("--seed",)),
    "fisher": ("Fisher information report", ("text", "csv", "md"), ("--seed", "--method", "--reps", "--workers",
               *_MODEL_DESIGN, "--active", "--cycles", "--design-file", "--mode", "--alpha")),
    "entropy": ("entropy / KL report", ("text", "csv", "md"), (*_MODEL_DESIGN, "--measure", "--order", "--kind")),
    "sample": ("draw a sample as CSV", (), ("--seed", *_MODEL_DESIGN, "--cycles", "--design-file", "--alpha")),
}

# flags a subcommand declares but reads only under some settings:
# (subcommands, flags, whether the resolved settings leave them unread, when that is)
_UNREAD = (
    (("fisher",), ("alpha", "design_file"), lambda s: s.mode == "complete", "under --mode complete"),
    (("fisher",), ("reps", "workers"), lambda s: s.method != "mc", "without --method mc"),
    (("fisher",), ("seed",), lambda s: s.method != "mc" and not s.alpha.startswith("dellclutter:"),
     "without --method mc or --alpha dellclutter:rho"),
    (("fisher", "sample"), ("set_size", "subsets"), lambda s: s.design_file is not None, "with --design-file"),
    (("entropy",), ("kind",), lambda s: s.measure == "kl", "under --measure kl"),
    (("entropy",), ("order",), lambda s: s.measure != "renyi", "without --measure renyi"),
    (("entropy",), ("set_size",), lambda s: s.kind == "srs", "under --kind srs"),
    (("table",), ("seed",), lambda s: s.table_id not in DC_TABLES, "outside tables {}, {} and {}".format(*DC_TABLES)),
)


def _build_parser() -> argparse.ArgumentParser:
    description = "Fisher information, entropy, and efficiency tables for rank-based sampling designs."
    parser = _Parser(prog="prosinfo", description=description)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, formats, flags) in _SUBCOMMANDS.items():
        # SUPPRESS: the namespace holds exactly the flags given
        command = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        if name == "table":
            command.add_argument("table_id", type=int)
        for flag in ("--output", *flags):
            command.add_argument(flag, **_FLAGS[flag])
        if formats:
            command.add_argument("--format", dest="fmt", choices=formats, help=f"default {formats[0]}")
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the flags given; a flag not given keeps its RunConfig field's default.

    A flag given where the resolved settings leave it unread is refused.
    """
    settings = dict(vars(args))
    subcommand, table_id = settings.pop("subcommand"), settings.pop("table_id", None)
    given = set(settings)
    if "params" in settings:
        settings["params"] = _parse_params(settings["params"])
    if "active" in settings:
        settings["active"] = tuple(s.strip() for s in settings["active"].split(",")) if settings["active"] else None
    for name, least in (("reps", 2), ("seed", 0), ("workers", 1), ("set_size", 1), ("subsets", 1), ("cycles", 1)):
        if name in settings:
            settings[name] = numerics.whole(settings[name], name.replace("_", "-"), least, CLIError)
    formats = _SUBCOMMANDS[subcommand][1]
    if formats:
        settings.setdefault("fmt", formats[0])
    cfg = RunConfig(subcommand=subcommand, **settings)
    resolved = argparse.Namespace(**vars(cfg), table_id=table_id)
    for subcommands, flags, unread, when in _UNREAD:
        for flag in flags:
            if subcommand in subcommands and flag in given and unread(resolved):
                raise CLIError(f"{subcommand} does not read --{flag.replace('_', '-')} {when}")
    return cfg


def _write(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: tp.Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if cfg.subcommand == "table":
            cells = run_table(args.table_id, cfg)
            text = cells_to_markdown(cells) if cfg.fmt == "md" else cells_to_csv(cells)
        else:
            text = run_custom(cfg)
        _write(text, cfg)
        return 0
    except numerics.NumericsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (CLIError, ModelError, DesignError, densities.DensityError, SamplingError, InformationError, EntropyError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
