"""Command-line front end: benchmark tables as CSV/Markdown plus ad-hoc reports.

`prosinfo table ID` regenerates one of the published relative-efficiency
tables; `fisher`, `entropy`, and `sample` expose the underlying computations
directly.  Each subcommand declares only the flags it can read, and refuses a
flag that the rest of the request leaves unread.  Exit codes: 0 success, 2
validation error, 3 numeric non-convergence.
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
from . import designs, information, numerics, sampling
from .information import InformationError
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


def cells_to_csv(cells: tp.Sequence[TableCell]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row_label", "col_label", "estimate", "mc_stderr", "method"])
    for c in cells:
        writer.writerow([c.row_label, c.col_label, _fixed(c.estimate), _fixed(c.mc_stderr), c.method])
    return buf.getvalue()


def cells_to_markdown(cells: tp.Sequence[TableCell]) -> str:
    """Pivot to the paper's visual layout: one row per row_label."""
    rows: list[str] = []
    cols: list[str] = []
    values: dict[tuple[str, str], float] = {}
    for c in cells:
        if c.row_label not in rows:
            rows.append(c.row_label)
        if c.col_label not in cols:
            cols.append(c.col_label)
        values[(c.row_label, c.col_label)] = c.estimate
    lines = ["| |" + "|".join(cols) + "|", "|---|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        cells_txt = ("" if (r, c) not in values else f"{values[(r, c)]:.4f}" for c in cols)
        lines.append(f"|{r}|" + "|".join(cells_txt) + "|")
    return "\n".join(lines) + "\n"


# -- table generation -----------------------------------------------------------


def _rel(num: tp.Any, den: tp.Any) -> float:
    return information.relative_efficiencies(num, den)


def _table2_cells() -> list[TableCell]:
    """Leading coefficients of the complete-data efficiency formulas.

    Single-parameter rows report the per-unit gain over the unit information
    (the scale row of the extreme-value family is printed unnormalized and is
    reproduced that way); two-parameter rows report the linear and quadratic
    coefficients of the determinant ratio in (S-1).  Every row also evaluates
    the efficiency against RSS at (S, n) = (6, 2).
    """
    single_rows: list[tuple[str, str, tuple[str, ...], dict[str, float], bool]] = [
        ("exponential scale", "exponential", ("sigma",), {}, False),
        ("normal location", "normal", ("mu",), {}, False),
        ("normal scale", "normal", ("sigma",), {}, False),
        ("logistic location", "logistic", ("mu",), {}, False),
        ("logistic scale", "logistic", ("sigma",), {}, False),
        ("extreme_value location", "extreme_value", ("mu",), {}, False),
        ("extreme_value scale", "extreme_value", ("sigma",), {}, True),
        *((f"gamma(shape={k}) scale", "gamma", ("sigma",), {"shape": float(k)}, False) for k in (2, 3, 4, 10)),
    ]
    joint_rows = [(f"{fam} location+scale", fam) for fam in ("normal", "logistic", "extreme_value")]

    def re2(model: Model) -> float:
        return _rel(information.fi_pros_complete(model, 2, 6).matrix, information.fi_pros_complete(model, 2, 2).matrix)

    cells: list[TableCell] = []
    for label, fam, active, params, raw in single_rows:
        model = make_model(fam, active=active, **params)
        unit = float(model.fisher_srs_unit()[0, 0])
        gain = float(information.k_matrix(model, 1, 2)[0, 0])
        slope = gain if raw else gain / unit
        cells.append(TableCell(label, "re1_lin", slope, 0.0, "quadrature"))
        cells.append(TableCell(label, "re2(S=6,n=2)", re2(model), 0.0, "quadrature"))
    for label, fam in joint_rows:
        model = make_model(fam)
        unit, gain = model.fisher_srs_unit(), information.k_matrix(model, 1, 2)
        (i00, i01), (_, i11) = unit.entries
        (k00, k01), (_, k11) = gain.entries
        # det(I + cK) / det I = 1 + c (I00 K11 + I11 K00 - 2 I01 K01) / det I + c^2 det K / det I
        det_unit = numerics.det_small(unit)
        lin = (i00 * k11 + i11 * k00 - 2.0 * i01 * k01) / det_unit
        quad = numerics.det_small(gain) / det_unit
        cells.append(TableCell(label, "re1_lin", lin, 0.0, "quadrature"))
        cells.append(TableCell(label, "re1_quad", quad, 0.0, "quadrature"))
        cells.append(TableCell(label, "re2(S=6,n=2)", re2(model), 0.0, "quadrature"))
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


# row label, model, and the (column prefix, design) pairs of the row, which share one n
_Row = tuple[str, Model, tuple[tuple[str, Design], ...]]


def _efficiency_cells(rows: tp.Sequence[_Row], grid: _Grid, seed: int) -> list[TableCell]:
    """RE1 against SRS(n) and RE2 against RSS(n) at every level; a row's RE1 cells come first."""
    pairs = [(model, design) for _, model, designs in rows for _, design in designs]
    info = _level_infos(pairs + [(model, rss_design(design.n)) for model, design in pairs], grid, seed)
    cells: list[TableCell] = []
    for label, model, designs in rows:
        n = designs[0][1].n
        srs, rss = information.fisher_srs(model, n), rss_design(n)
        re1: list[TableCell] = []
        re2: list[TableCell] = []
        for prefix, design in designs:
            for level in grid.levels:
                num = info[model, design, level]
                col = prefix + grid.column.format(level)
                re1.append(TableCell(f"{label} RE1", col, _rel(num, srs), 0.0, grid.method))
                re2.append(TableCell(f"{label} RE2", col, _rel(num, info[model, rss, level]), 0.0, grid.method))
        cells += re1 + re2
    return cells


def _fixed_rss_cells(
    comparisons: tp.Sequence[tuple[int, tp.Sequence[tuple[int, int, int]]]], grid: _Grid, seed: int
) -> list[TableCell]:
    """RE2 of PROS(S, n) over N cycles against RSS of a fixed set size, per family and level."""
    rows = [
        (f"{fam} S={S} n={n} N={N} vs RSS({fixed})", model, make_balanced_design(S, n, cycles=N), rss_design(fixed))
        for fam, model in _family_models()
        for fixed, sizes in comparisons
        for S, n, N in sizes
    ]
    info = _level_infos([(model, d) for _, model, design, rss in rows for d in (design, rss)], grid, seed)
    return [
        TableCell(label, grid.column.format(level), _rel(info[m, d, level], info[m, rss, level]), 0.0, grid.method)
        for label, m, d, rss in rows
        for level in grid.levels
    ]


def _same_size_rows(models: tp.Sequence[tuple[str, Model]], set_sizes: tp.Sequence[int]) -> list[_Row]:
    """PROS(S, n) for n = 2, 3; a column names S only when the row spans several."""
    named = len(set_sizes) > 1
    return [
        (f"{base} n={n}", model, tuple((f"S={S} " if named else "", make_balanced_design(S, n)) for S in set_sizes))
        for base, model in models
        for n in (2, 3)
    ]


def _family_models() -> list[tuple[str, Model]]:
    return [(fam, make_model(fam)) for fam in ("normal", "exponential", "logistic")]


def _mixture_models() -> list[tuple[str, Model]]:
    return [(f"exp_mixture(pi={pi:g},h={h:.4g})", make_model("exp_mixture", pi=pi, h=h)) for pi, h in _MIXTURE_ROWS]


def _partition_rows() -> list[_Row]:
    """Single-partition unbalanced designs of set size 6, normal parent: one set per block, measuring it."""
    model, partitions = make_model("normal"), map(_parse_partition, _UNBALANCED_PARTITIONS)
    rows = (Design(6, tuple(SetPlan(1, blocks, r) for r in range(1, len(blocks) + 1))) for blocks in partitions)
    return [(text, model, (("", design),)) for text, design in zip(_UNBALANCED_PARTITIONS, rows)]


def run_table(table_id: int, cfg: RunConfig) -> list[TableCell]:
    """Cells of one benchmark table, in the printed row/column order.

    The DC_TABLES calibrate their misplacement matrices from one draw of
    sampling.DC_REPS judgment sets per (model, S) at cfg.seed; the others use quadrature only.
    """
    seed = cfg.seed
    grid = _RHO_COLUMNS if table_id in DC_TABLES else _P_COLUMNS
    builders: dict[int, tp.Callable[[], list[TableCell]]] = {
        2: _table2_cells,
        3: lambda: _efficiency_cells(_same_size_rows(_family_models(), (6,)), grid, seed),
        4: lambda: _efficiency_cells(_same_size_rows(_family_models(), (12,)), grid, seed),
        5: lambda: _efficiency_cells(_same_size_rows(_family_models() + _mixture_models(), (6, 12)), grid, seed),
        6: lambda: _fixed_rss_cells(((6, _FIXED6_DC_ROWS), (12, _FIXED12_ROWS)), grid, seed),
        7: lambda: _fixed_rss_cells(((6, _FIXED6_ROWS),), grid, seed),
        8: lambda: _fixed_rss_cells(((12, _FIXED12_ROWS),), grid, seed),
        10: lambda: _efficiency_cells(_partition_rows(), grid, seed),
    }
    if table_id not in builders:
        raise CLIError(f"unknown table id {table_id}; valid ids are {', '.join(map(str, TABLE_IDS))}")
    return builders[table_id]()


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
    if fmt == "md":
        lines = ["|quantity|value|", "|---|---|"] + [f"|{k}|{v}|" for k, v in pairs]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["quantity", "value"])
        writer.writerows(pairs)
        return buf.getvalue()
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def _fi_entry_pairs(fi: information.FIResult, names: tp.Sequence[str]) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    p = fi.p
    for j in range(p):
        for k in range(j, p):
            value = _fixed(fi.matrix[j, k])
            if fi.std_errors is not None:
                value += f" (se {_fixed(fi.std_errors[j, k])})"
            pairs.append((f"fi[{names[j]},{names[k]}]", value))
    return pairs


def _rss_report_info(cfg: RunConfig, inputs: _Inputs, model: Model, n: int, cycles: int = 1) -> numerics.InfoMatrix:
    """Information of RSS(n) under the run's --alpha, the denominator of the reported re2."""
    rss = rss_design(n, cycles)
    return information.fi_unbalanced(model, rss, _alphas(cfg, inputs, model, rss)).matrix


def _run_fisher(cfg: RunConfig, inputs: _Inputs) -> str:
    model = _build_model(cfg)
    common = dict(method=cfg.method, reps=cfg.reps, seed=cfg.seed, workers=cfg.workers)
    ud = inputs.design
    if cfg.mode == "unbalanced" or (cfg.mode == "marginal" and ud is not None):
        if ud is None:
            raise CLIError("unbalanced mode needs --design-file")
        fi = information.fi_unbalanced(model, ud, _alphas(cfg, inputs, model, ud), **common)
        count = ud.K * ud.replications
        block_counts = {ud.n_subsets(i) for i in ud.cycle_ids}
        re2 = None
        if len(block_counts) == 1:
            n = block_counts.pop()
            re2 = _rel(fi.matrix.scaled(n / count), _rss_report_info(cfg, inputs, model, n))
    else:
        design = _balanced_design(cfg)
        n = design.n
        count = n * cfg.cycles
        if cfg.mode == "complete":
            fi = information.fi_pros_complete(model, n, design.set_size, cfg.cycles, **common)
            re2 = _rel(fi.matrix, information.fi_pros_complete(model, n, n, cfg.cycles).matrix)
        elif cfg.mode == "marginal":
            alpha = _alphas(cfg, inputs, model, design).get(1)
            fi = information.fi_pros_marginal(model, design, alpha, **common)
            re2 = _rel(fi.matrix, _rss_report_info(cfg, inputs, model, n, cfg.cycles))
        else:
            raise CLIError(f"--mode must be complete, marginal, or unbalanced, got {cfg.mode!r}")
    re1 = _rel(fi.matrix, information.fisher_srs(model, count))
    pairs = [("model", model.label()), ("design", fi.design_label), ("method", fi.method)]
    pairs += _fi_entry_pairs(fi, model.active) + [("det", _fixed(fi.det())), ("re1", _fixed(re1))]
    if re2 is not None:
        pairs.append(("re2", _fixed(re2)))
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
    out: list[tuple[str, float]] = []
    for i, piece in enumerate(text.split(","), start=1):
        piece = piece.strip()
        if "=" not in piece:
            raise CLIError(f"--params entry {i} ({piece!r}) must look like name=value")
        name, _, raw = piece.partition("=")
        try:
            out.append((name.strip(), float(raw)))
        except ValueError:
            raise CLIError(f"--params entry {i}: {raw!r} is not a number") from None
    return tuple(out)


def _load_config_file(path: str) -> dict[str, str]:
    allowed = {"reps", "seed", "method", "workers", "format", "output"}
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise CLIError(f"{path}: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CLIError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in allowed:
            raise CLIError(f"{path}:{lineno}: unknown key {key!r}; allowed: {sorted(allowed)}")
        out[key] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """Reports a parse error in one stderr line."""

    def error(self, message: str) -> tp.NoReturn:
        self.exit(2, f"error: {message}\n")


# add_argument keywords of every flag; a flag not given takes its RunConfig field's default
_FLAGS: dict[str, dict[str, tp.Any]] = {
    "--config": dict(help="key=value file of reps, seed, method, workers, format, output; unread keys ignored"),
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
# subcommand: (help, its --format choices with the default first, the flags it reads besides --config and --output)
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


def _declared(subcommand: str) -> dict[str, dict[str, tp.Any]]:
    """add_argument keywords of every flag the subcommand declares."""
    _, formats, flags = _SUBCOMMANDS[subcommand]
    declared = {flag: _FLAGS[flag] for flag in ("--config", "--output", *flags)}
    if formats:
        declared["--format"] = dict(dest="fmt", choices=formats, help=f"default {formats[0]}")
    return declared


def _build_parser() -> argparse.ArgumentParser:
    description = "Fisher information, entropy, and efficiency tables for rank-based sampling designs."
    parser = _Parser(prog="prosinfo", description=description)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, _, _) in _SUBCOMMANDS.items():
        # SUPPRESS: the namespace holds exactly the flags given
        command = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        if name == "table":
            command.add_argument("table_id", type=int)
        for flag, spec in _declared(name).items():
            command.add_argument(flag, **spec)
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the flags given, over the --config keys the subcommand reads, over PROSINFO_SEED.

    A flag given where the resolved settings leave it unread is refused.
    """
    given = dict(vars(args))
    subcommand, table_id = given.pop("subcommand"), given.pop("table_id", None)
    declared = _declared(subcommand)
    env_seed = os.environ.get("PROSINFO_SEED")
    sources = [("PROSINFO_SEED", {"seed": env_seed} if env_seed else {})]
    if "config" in given:
        sources.append((given["config"], _load_config_file(given.pop("config"))))
    settings: dict[str, tp.Any] = {}
    for source, entries in sources:
        for key, raw in entries.items():
            spec = declared.get("--" + key)
            if spec is None:
                continue  # a shared key this subcommand does not read
            cast = spec.get("type", str)
            try:
                value = cast(raw)
            except ValueError:
                raise CLIError(f"{source}: {key} = {raw!r} is not a valid {cast.__name__}") from None
            if value not in spec.get("choices", (value,)):
                raise CLIError(f"{source}: {key} must be one of {', '.join(spec['choices'])}, got {raw!r}")
            settings[spec.get("dest", key)] = value
    settings.update(given)
    if "params" in settings:
        settings["params"] = _parse_params(settings["params"])
    if "active" in settings:
        settings["active"] = tuple(s.strip() for s in settings["active"].split(",")) if settings["active"] else None
    for name, least in (("reps", 2), ("seed", 0), ("workers", 1), ("set_size", 1), ("subsets", 1)):
        if settings.get(name, least) < least:
            raise CLIError(f"{name.replace('_', '-')} must be at least {least}, got {settings[name]}")
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
    except (CLIError, ModelError, DesignError, SamplingError, InformationError, EntropyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
