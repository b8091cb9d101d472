"""Command-line front end: benchmark tables as CSV/Markdown plus ad-hoc reports.

`prosinfo table ID` regenerates one of the published relative-efficiency
tables; `fisher`, `entropy`, and `sample` expose the underlying computations
directly.  Exit codes: 0 success, 2 validation error, 3 numeric
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import typing as tp

import numpy as np

from . import entropy as entropy_lib
from . import information, numerics, sampling
from .information import InformationError
from .designs import (
    Design,
    DesignError,
    MisplacementMatrix,
    SetPlan,
    UnbalancedDesign,
    make_balanced_design,
    make_symmetric_alpha,
    parse_design_file,
    parse_misplacement_csv,
    rss_design,
    _parse_partition,
)
from .entropy import EntropyError
from .models import Model, ModelError, family_names, make_model
from .sampling import DellClutterConfig, SamplingError

__all__ = ["RunConfig", "TableCell", "run_table", "run_custom", "cells_to_csv", "cells_to_markdown", "main"]

TABLE_IDS = (2, 3, 4, 5, 6, 7, 8, 10)
P_GRID = tuple(round(0.1 * i, 1) for i in range(11))
RHO_GRID = (0.25, 0.50, 0.75, 0.90, 1.00)
DC_REPS = 5000  # stage-1 judgment sets per misplacement-matrix estimate

# (S, n, N) rows of the fixed-set-size comparisons, as printed
_FIXED6_ROWS = ((4, 2, 3), (6, 2, 3), (6, 3, 2), (6, 6, 1), (8, 2, 3), (12, 2, 3), (12, 3, 2), (12, 6, 1))
_FIXED12_ROWS = ((6, 2, 6), (6, 3, 4), (12, 2, 6), (12, 3, 4), (12, 4, 3), (12, 6, 2), (12, 12, 1))
# the ranked-against-RSS table drops the degenerate PROS(6,6) row
_FIXED6_DC_ROWS = tuple(r for r in _FIXED6_ROWS if r != (6, 6, 1))

_UNBALANCED_PARTITIONS = (
    "1-5|6",
    "1-4|5-6",
    "1-3|4-6",
    "1-2|3-6",
    "1|2-6",
    "1|2|3-6",
    "1|2-3|4-6",
    "1|2-4|5-6",
    "1|2-5|6",
    "1-2|3-5|6",
    "1-2|3-4|5-6",
    "1-3|4|5-6",
    "1-3|4-5|6",
    "1-4|5|6",
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

    def model_spec(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}({inner})" if inner else self.family


@dataclasses.dataclass(frozen=True)
class TableCell:
    """One emitted table entry."""

    row_label: str
    col_label: str
    estimate: float
    mc_stderr: float
    method: str


def cells_to_csv(cells: tp.Sequence[TableCell]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row_label", "col_label", "estimate", "mc_stderr", "method"])
    for c in cells:
        writer.writerow([c.row_label, c.col_label, f"{c.estimate:.6f}", f"{c.mc_stderr:.6f}", c.method])
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


def _table2_cells(cfg: RunConfig) -> list[TableCell]:
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
        ("gamma(shape=2) scale", "gamma", ("sigma",), {"shape": 2.0}, False),
        ("gamma(shape=3) scale", "gamma", ("sigma",), {"shape": 3.0}, False),
        ("gamma(shape=4) scale", "gamma", ("sigma",), {"shape": 4.0}, False),
        ("gamma(shape=10) scale", "gamma", ("sigma",), {"shape": 10.0}, False),
    ]
    joint_rows = [
        ("normal location+scale", "normal"),
        ("logistic location+scale", "logistic"),
        ("extreme_value location+scale", "extreme_value"),
    ]
    cells: list[TableCell] = []
    for label, fam, active, params, raw in single_rows:
        model = make_model(fam, active=active, **params)
        unit = float(model.fisher_srs_unit()[0, 0])
        gain = float(information.k_matrix(model, 1, 2)[0, 0])
        slope = gain if raw else gain / unit
        re2 = _rel(
            information.fi_pros_complete(model, 2, 6).matrix,
            information.fi_pros_complete(model, 2, 2).matrix,
        )
        cells.append(TableCell(label, "re1_lin", slope, 0.0, "quadrature"))
        cells.append(TableCell(label, "re2(S=6,n=2)", re2, 0.0, "quadrature"))
    for label, fam in joint_rows:
        model = make_model(fam)
        unit = model.fisher_srs_unit()
        gain = information.k_matrix(model, 1, 2)
        re1_at = {s: _rel(unit + gain.scaled(s - 1), unit) for s in (2, 3, 4)}
        quad = (re1_at[3] + 1.0 - 2.0 * re1_at[2]) / 2.0
        lin = re1_at[2] - 1.0 - quad
        check = 1.0 + 3.0 * lin + 9.0 * quad
        if abs(check - re1_at[4]) > 1e-6 * max(1.0, abs(re1_at[4])):
            raise information.InformationError(
                f"{label}: efficiency is not quadratic in S-1 ({check} vs {re1_at[4]})"
            )
        re2 = _rel(
            information.fi_pros_complete(model, 2, 6).matrix,
            information.fi_pros_complete(model, 2, 2).matrix,
        )
        cells.append(TableCell(label, "re1_lin", lin, 0.0, "quadrature"))
        cells.append(TableCell(label, "re1_quad", quad, 0.0, "quadrature"))
        cells.append(TableCell(label, "re2(S=6,n=2)", re2, 0.0, "quadrature"))
    return cells


def _imperfect_grid_cells(set_size: int) -> list[TableCell]:
    """Symmetric-misplacement efficiencies against same-size SRS and RSS."""
    cells: list[TableCell] = []
    for fam in ("normal", "exponential", "logistic"):
        model = make_model(fam)
        for n in (2, 3):
            design = make_balanced_design(set_size, n)
            rss = rss_design(n)
            srs = information.fisher_srs(model, n)
            re1_cells: list[TableCell] = []
            re2_cells: list[TableCell] = []
            for p in P_GRID:
                alpha = make_symmetric_alpha(n, p)
                num = information.fi_pros_marginal(model, design, alpha).matrix
                den = information.fi_pros_marginal(model, rss, alpha).matrix
                col = f"p={p:.1f}"
                re1_cells.append(TableCell(f"{fam} n={n} RE1", col, _rel(num, srs), 0.0, "quadrature"))
                re2_cells.append(TableCell(f"{fam} n={n} RE2", col, _rel(num, den), 0.0, "quadrature"))
            cells.extend(re1_cells)
            cells.extend(re2_cells)
    return cells


_DC_METHOD = f"dellclutter({DC_REPS})+quadrature"


def _dc_alpha(model: Model, design: Design, rho: float, seed: int) -> MisplacementMatrix:
    return sampling.estimate_dell_clutter_alpha(model, design, DellClutterConfig(rho, DC_REPS, seed))


def _table5_cells(cfg: RunConfig) -> list[TableCell]:
    """Ranking-error (concomitant rho) efficiencies against same-size SRS and RSS."""
    model_rows: list[tuple[str, Model]] = [
        (fam, make_model(fam)) for fam in ("normal", "exponential", "logistic")
    ]
    for pi, h in _MIXTURE_ROWS:
        model_rows.append(
            (f"exp_mixture(pi={pi:g},h={h:.4g})", make_model("exp_mixture", pi=pi, h=h))
        )
    cells: list[TableCell] = []
    for base, model in model_rows:
        rss_fi: dict[tuple[int, float], numerics.InfoMatrix] = {}
        for n in (2, 3):
            srs = information.fisher_srs(model, n)
            rss = rss_design(n)
            re1_cells: list[TableCell] = []
            re2_cells: list[TableCell] = []
            for S in (6, 12):
                design = make_balanced_design(S, n)
                for rho in RHO_GRID:
                    key = (n, rho)
                    if key not in rss_fi:
                        a_rss = _dc_alpha(model, rss, rho, cfg.seed)
                        rss_fi[key] = information.fi_pros_marginal(model, rss, a_rss).matrix
                    a = _dc_alpha(model, design, rho, cfg.seed)
                    num = information.fi_pros_marginal(model, design, a).matrix
                    col = f"S={S} rho={rho:.2f}"
                    re1_cells.append(
                        TableCell(f"{base} n={n} RE1", col, _rel(num, srs), 0.0, _DC_METHOD)
                    )
                    re2_cells.append(
                        TableCell(f"{base} n={n} RE2", col, _rel(num, rss_fi[key]), 0.0, _DC_METHOD)
                    )
            cells.extend(re1_cells)
            cells.extend(re2_cells)
    return cells


def _table6_cells(cfg: RunConfig) -> list[TableCell]:
    """Ranking-error RE2 of replicated PROS against RSS of a fixed set size."""
    cells: list[TableCell] = []
    for fam in ("normal", "exponential", "logistic"):
        model = make_model(fam)
        for fixed, rows in ((6, _FIXED6_DC_ROWS), (12, _FIXED12_ROWS)):
            rss_fixed = make_balanced_design(fixed, fixed)
            den_cache: dict[float, numerics.InfoMatrix] = {}
            for S, n, N in rows:
                design = make_balanced_design(S, n, cycles=N)
                for rho in RHO_GRID:
                    if rho not in den_cache:
                        a_rss = _dc_alpha(model, rss_fixed, rho, cfg.seed)
                        den_cache[rho] = information.fi_pros_marginal(model, rss_fixed, a_rss).matrix
                    a = _dc_alpha(model, make_balanced_design(S, n), rho, cfg.seed)
                    num = information.fi_pros_marginal(model, design, a).matrix
                    cells.append(
                        TableCell(
                            f"{fam} S={S} n={n} N={N} vs RSS({fixed})",
                            f"rho={rho:.2f}",
                            _rel(num, den_cache[rho]),
                            0.0,
                            _DC_METHOD,
                        )
                    )
    return cells


def _fixed_rss_grid_cells(fixed: int, rows: tp.Sequence[tuple[int, int, int]]) -> list[TableCell]:
    """Symmetric-misplacement RE2 of replicated PROS against RSS of a fixed set size."""
    cells: list[TableCell] = []
    for fam in ("normal", "exponential", "logistic"):
        model = make_model(fam)
        rss_fixed = make_balanced_design(fixed, fixed)
        den_cache: dict[float, numerics.InfoMatrix] = {}
        for S, n, N in rows:
            design = make_balanced_design(S, n, cycles=N)
            for p in P_GRID:
                if p not in den_cache:
                    den_cache[p] = information.fi_pros_marginal(
                        model, rss_fixed, make_symmetric_alpha(fixed, p)
                    ).matrix
                num = information.fi_pros_marginal(model, design, make_symmetric_alpha(n, p)).matrix
                cells.append(
                    TableCell(
                        f"{fam} S={S} n={n} N={N} vs RSS({fixed})",
                        f"p={p:.1f}",
                        _rel(num, den_cache[p]),
                        0.0,
                        "quadrature",
                    )
                )
    return cells


def _table10_cells(cfg: RunConfig) -> list[TableCell]:
    """Ranking-error efficiencies of single-partition unbalanced designs, normal parent."""
    model = make_model("normal")
    cells: list[TableCell] = []
    rss_fi: dict[tuple[int, float], numerics.InfoMatrix] = {}
    for text in _UNBALANCED_PARTITIONS:
        blocks = _parse_partition(text)
        n = len(blocks)
        ud = UnbalancedDesign(
            set_size=6, sets=tuple(SetPlan(1, blocks, r) for r in range(1, n + 1))
        )
        srs = information.fisher_srs(model, n)
        re1_cells: list[TableCell] = []
        re2_cells: list[TableCell] = []
        for rho in RHO_GRID:
            key = (n, rho)
            if key not in rss_fi:
                a_rss = _dc_alpha(model, rss_design(n), rho, cfg.seed)
                rss_fi[key] = information.fi_pros_marginal(model, rss_design(n), a_rss).matrix
            a = sampling.estimate_alpha_for_partition(
                model, 6, blocks, DellClutterConfig(rho, DC_REPS, cfg.seed)
            )
            num = information.fi_unbalanced(model, ud, {1: a}).matrix
            col = f"rho={rho:.2f}"
            re1_cells.append(TableCell(f"{text} RE1", col, _rel(num, srs), 0.0, _DC_METHOD))
            re2_cells.append(TableCell(f"{text} RE2", col, _rel(num, rss_fi[key]), 0.0, _DC_METHOD))
        cells.extend(re1_cells)
        cells.extend(re2_cells)
    return cells


def run_table(table_id: int, cfg: RunConfig) -> list[TableCell]:
    """Cells of one benchmark table, in the printed row/column order."""
    builders: dict[int, tp.Callable[[], list[TableCell]]] = {
        2: lambda: _table2_cells(cfg),
        3: lambda: _imperfect_grid_cells(6),
        4: lambda: _imperfect_grid_cells(12),
        5: lambda: _table5_cells(cfg),
        6: lambda: _table6_cells(cfg),
        7: lambda: _fixed_rss_grid_cells(6, _FIXED6_ROWS),
        8: lambda: _fixed_rss_grid_cells(12, _FIXED12_ROWS),
        10: lambda: _table10_cells(cfg),
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
    raise CLIError(
        f"--alpha must be perfect, symmetric:p, dellclutter:rho, or an existing file; got {text!r}"
    )


def _alpha_for_design(cfg: RunConfig, model: Model, design: Design) -> MisplacementMatrix | None:
    kind, value = _parse_alpha_spec(cfg.alpha)
    if kind == "perfect":
        return None
    if kind == "symmetric":
        return make_symmetric_alpha(design.n, tp.cast(float, value))
    if kind == "dellclutter":
        return _dc_alpha(model, design, tp.cast(float, value), cfg.seed)
    return parse_misplacement_csv(tp.cast(str, value))


def _alphas_for_unbalanced(
    cfg: RunConfig, model: Model, ud: UnbalancedDesign
) -> dict[int, MisplacementMatrix] | None:
    kind, value = _parse_alpha_spec(cfg.alpha)
    if kind == "perfect":
        return None
    if kind == "symmetric":
        return {i: make_symmetric_alpha(ud.n_subsets(i), tp.cast(float, value)) for i in ud.cycle_ids}
    if kind == "dellclutter":
        return sampling.estimate_unbalanced_alphas(
            model, ud, DellClutterConfig(tp.cast(float, value), DC_REPS, cfg.seed)
        )
    matrix = parse_misplacement_csv(tp.cast(str, value))
    return {i: matrix for i in ud.cycle_ids}


def _require_balanced_args(cfg: RunConfig) -> tuple[int, int]:
    if cfg.set_size is None or cfg.subsets is None:
        raise CLIError("--set-size and --subsets are required (or pass --design-file)")
    return cfg.set_size, cfg.subsets


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
            value = f"{fi.matrix[j, k]:.6f}"
            if fi.std_errors is not None:
                value += f" (se {fi.std_errors[j, k]:.6f})"
            pairs.append((f"fi[{names[j]},{names[k]}]", value))
    return pairs


def _run_fisher(cfg: RunConfig) -> str:
    model = _build_model(cfg)
    common = dict(method=cfg.method, reps=cfg.reps, seed=cfg.seed, workers=cfg.workers)
    if cfg.mode == "unbalanced" or cfg.design_file is not None:
        if cfg.design_file is None:
            raise CLIError("unbalanced mode needs --design-file")
        ud = parse_design_file(cfg.design_file)
        ud = dataclasses.replace(ud, replications=cfg.cycles)
        alphas = _alphas_for_unbalanced(cfg, model, ud)
        fi = information.fi_unbalanced(model, ud, alphas, **common)
        count = ud.K * ud.replications
        block_counts = {ud.n_subsets(i) for i in ud.cycle_ids}
        re2 = None
        if len(block_counts) == 1:
            n = block_counts.pop()
            rss = rss_design(n)
            a_rss = _alpha_for_design(cfg, model, rss)
            re2 = _rel(
                fi.matrix.scaled(n / count),
                information.fi_pros_marginal(model, rss, a_rss).matrix,
            )
    else:
        set_size, n = _require_balanced_args(cfg)
        design = make_balanced_design(set_size, n, cycles=cfg.cycles)
        count = n * cfg.cycles
        if cfg.mode == "complete":
            if cfg.alpha != "perfect":
                raise CLIError("complete mode assumes perfect subsetting; drop --alpha")
            fi = information.fi_pros_complete(model, n, set_size, cfg.cycles, **common)
            re2 = _rel(
                fi.matrix, information.fi_pros_complete(model, n, n, cfg.cycles).matrix
            )
        elif cfg.mode == "marginal":
            alpha = _alpha_for_design(cfg, model, design)
            fi = information.fi_pros_marginal(model, design, alpha, **common)
            rss = rss_design(n, cycles=cfg.cycles)
            a_rss = _alpha_for_design(cfg, model, rss)
            re2 = _rel(fi.matrix, information.fi_pros_marginal(model, rss, a_rss).matrix)
        else:
            raise CLIError(f"--mode must be complete, marginal, or unbalanced, got {cfg.mode!r}")
    re1 = _rel(fi.matrix, information.fisher_srs(model, count))
    pairs = [("model", model.label()), ("design", fi.design_label), ("method", fi.method)]
    pairs += _fi_entry_pairs(fi, model.active)
    pairs.append(("det", f"{fi.det():.6f}"))
    pairs.append(("re1", f"{re1:.6f}"))
    if re2 is not None:
        pairs.append(("re2", f"{re2:.6f}"))
    return _report_lines(pairs, cfg.fmt)


def _run_entropy(cfg: RunConfig) -> str:
    model = _build_model(cfg)
    if cfg.measure == "kl":
        set_size, n = _require_balanced_args(cfg)
        design = make_balanced_design(set_size, n)
        value = entropy_lib.kl_pros_srs(model, design)
        return _report_lines(
            [("model", model.label()), ("design", design.label()), ("kl(pros,srs)", f"{value:.6f}")],
            cfg.fmt,
        )
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
    # the + 0.0 normalizes negative zero
    pairs += [(f"subset {i}", f"{h + 0.0:.6f}") for i, h in enumerate(report.per_subset, start=1)]
    pairs += [
        ("total", f"{report.total + 0.0:.6f}"),
        ("lower_bound", f"{report.lower_bound + 0.0:.6f}"),
        ("upper_bound", f"{report.upper_bound + 0.0:.6f}"),
    ]
    return _report_lines(pairs, cfg.fmt)


def _run_sample(cfg: RunConfig) -> str:
    model = _build_model(cfg)
    if cfg.design_file is not None:
        ud = parse_design_file(cfg.design_file)
        ud = dataclasses.replace(ud, replications=cfg.cycles)
        alphas = _alphas_for_unbalanced(cfg, model, ud)
        return sampling.sample_to_csv(sampling.draw_unbalanced_pros(model, ud, alphas, cfg.seed))
    set_size, n = _require_balanced_args(cfg)
    design = make_balanced_design(set_size, n, cycles=cfg.cycles)
    alpha = _alpha_for_design(cfg, model, design)
    return sampling.sample_to_csv(sampling.draw_pros(model, design, alpha, cfg.seed))


def run_custom(cfg: RunConfig) -> str:
    """Dispatch a non-table subcommand and return its rendered output."""
    if cfg.subcommand == "fisher":
        return _run_fisher(cfg)
    if cfg.subcommand == "entropy":
        return _run_entropy(cfg)
    if cfg.subcommand == "sample":
        return _run_sample(cfg)
    raise CLIError(f"unknown subcommand {cfg.subcommand!r}")


# -- argument parsing ------------------------------------------------------------


def _parse_params(text: str | None) -> tuple[tuple[str, float], ...]:
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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file mirroring the flags below")
    common.add_argument("--format", choices=("csv", "md", "text"), default=None)
    common.add_argument("--output", default=None, help="write here instead of stdout")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--reps", type=int, default=None)
    common.add_argument("--method", choices=("quadrature", "mc"), default=None)
    common.add_argument("--workers", type=int, default=None, help="advisory: Monte Carlo runs on one thread")

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--family", default="normal", choices=family_names())
    model_flags.add_argument("--params", default=None, help="comma-separated name=value pairs")
    model_flags.add_argument("--active", default=None, help="comma-separated parameter names")

    design_flags = argparse.ArgumentParser(add_help=False)
    design_flags.add_argument("--set-size", type=int, default=None)
    design_flags.add_argument("--subsets", type=int, default=None)
    design_flags.add_argument("--cycles", type=int, default=1)
    design_flags.add_argument("--design-file", default=None)

    parser = argparse.ArgumentParser(
        prog="prosinfo",
        description="Fisher information, entropy, and efficiency tables for rank-based sampling designs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    table = sub.add_parser("table", parents=[common], help="regenerate a benchmark table")
    table.add_argument("table_id", type=int)

    fisher = sub.add_parser(
        "fisher", parents=[common, model_flags, design_flags], help="Fisher information report"
    )
    fisher.add_argument("--mode", choices=("complete", "marginal", "unbalanced"), default="marginal")
    fisher.add_argument("--alpha", default="perfect", help="perfect | symmetric:p | dellclutter:rho | file")

    ent = sub.add_parser(
        "entropy", parents=[common, model_flags, design_flags], help="entropy / KL report"
    )
    ent.add_argument("--measure", choices=("shannon", "renyi", "kl"), default="shannon")
    ent.add_argument("--order", type=float, default=None, help="Renyi order in (0, 1)")
    ent.add_argument("--kind", choices=("srs", "rss", "pros"), default="pros")

    samp = sub.add_parser(
        "sample", parents=[common, model_flags, design_flags], help="draw a sample as CSV"
    )
    samp.add_argument("--alpha", default="perfect", help="perfect | symmetric:p | dellclutter:rho | file")
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    conf = _load_config_file(args.config) if args.config else {}

    def pick(flag: tp.Any, key: str, fallback: tp.Any, cast: tp.Callable[[str], tp.Any]) -> tp.Any:
        if flag is not None:
            return flag
        if key in conf:
            try:
                return cast(conf[key])
            except ValueError:
                raise CLIError(f"{args.config}: {key} = {conf[key]!r} is not a valid {cast.__name__}") from None
        return fallback

    env_seed = os.environ.get("PROSINFO_SEED")
    try:
        seed_fallback = int(env_seed) if env_seed else numerics.DEFAULT_SEED
    except ValueError:
        raise CLIError(f"PROSINFO_SEED={env_seed!r} is not an integer") from None
    reps = pick(args.reps, "reps", information.DEFAULT_REPS, int)
    seed = pick(args.seed, "seed", seed_fallback, int)
    workers = pick(args.workers, "workers", 1, int)
    for name, value, least in (("reps", reps, 2), ("seed", seed, 0), ("workers", workers, 1)):
        if value < least:
            raise CLIError(f"{name} must be at least {least}, got {value}")
    fmt = pick(args.format, "format", "csv" if args.subcommand in ("table", "sample") else "text", str)
    if fmt not in ("csv", "md", "text"):
        raise CLIError(f"format must be csv, md or text, got {fmt!r}")
    active = tuple(s.strip() for s in args.active.split(",")) if getattr(args, "active", None) else None
    return RunConfig(
        subcommand=args.subcommand,
        family=getattr(args, "family", "normal"),
        params=_parse_params(getattr(args, "params", None)),
        active=active,
        set_size=getattr(args, "set_size", None),
        subsets=getattr(args, "subsets", None),
        cycles=getattr(args, "cycles", 1),
        design_file=getattr(args, "design_file", None),
        alpha=getattr(args, "alpha", "perfect"),
        mode=getattr(args, "mode", "marginal"),
        measure=getattr(args, "measure", "shannon"),
        order=getattr(args, "order", None),
        kind=getattr(args, "kind", "pros"),
        method=pick(args.method, "method", "quadrature", str),
        reps=reps,
        seed=seed,
        workers=workers,
        fmt=fmt,
        output=pick(args.output, "output", None, str),
    )


def _write(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: tp.Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
