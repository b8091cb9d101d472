#!/usr/bin/env python3
"""Which outputs of prosinfo move between two versions of its source, compared bit for bit.

    python tools/bits.py REV [REV2] [--allow NAME ...]

`git archive REV src/prosinfo` is unpacked under another package name and imported beside the working tree's
package, or beside REV2's, unpacked the same way.  The package imports its own modules only relatively, so the two
copies share nothing but numpy and scipy.  The working tree's perfbench/workloads.py is imported once per side,
its `import prosinfo as P` bound to that side's package, so both sides run exactly the benchmark's catalogues and
executors.  Each side computes one fixed manifest:

- table.ID: every cell of the eight tables (estimate and standard error), and each table's CSV and Markdown text;
- grid: grid_execute over the 165 cells of the grid-quadrature catalogue;
- fisher, entropy, sample: requests through cli.main under perfect, symmetric and Dell-Clutter ranking;
- query: query_execute over the 50 query-mix catalogue entries at seeds 1 and 2;
- mc.w1, mc.w2: mc_call over the 28 mc-replicates catalogue entries at seeds 1-28 and workers 1 and 2, every
  information entry and standard error; mc.w2_vs_w1 compares the second side's two worker counts;
- golden: the requests of the three sample goldens and of the design Fisher golden;
- refused, quiet: the command lines of tools/cli_checks.txt under each check;
- route.NAME: k_matrix, h_matrix, regression_fi, kl_pros_srs, kl_likelihood_chain and estimate_alphas, and
  model.NAME: Model.quantile_scores, score_cdf, score_logpdf and neg_hessian at integrate's first node array and at
  fixed draws, each over FAMILIES and one member with mu != 0 and sigma != 1.

Every command line runs with every warning an error, and every report of fisher, entropy, sample, query, golden,
refused and quiet prints its numbers by repr instead of to six decimals.  Each output prints "same bits", or the
case that moves most: its largest relative difference, and that entry's distance in units in the last place (ulp),
over the entries that are not rounding noise around 0 (below NOISE of the case's largest magnitude).  The exit
status is 0 only when every output keeps its bits or matches an --allow pattern (fnmatch).
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import importlib.util
import io
import math
import pathlib
import re
import subprocess
import sys
import tarfile
import tempfile
import time
import types
import typing as tp
import warnings

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
Value = tp.Union[np.ndarray, str]  # an output's numbers at full precision, or its text

TABLE_IDS = (2, 3, 4, 5, 6, 7, 8, 10)
QUERY_SEEDS = (1, 2)
PLAN = "1;1-2|3-6;1\n1;1-2|3-6;2\n2;1|2-5|6;1\n2;1|2-5|6;2\n2;1|2-5|6;3\n"  # two cycles of unequal blocks
FAMILIES = (
    ("normal", ""), ("exponential", ""), ("logistic", ""), ("extreme_value", ""), ("uniform", ""),
    ("gamma", "shape=2"), ("gamma", "shape=0.5"), ("exp_mixture", "pi=0.3,h=0.3333333333333333"),
)
SHIFTED = ("normal", "mu=1.5,sigma=2.5")  # the member on which Model maps x = mu + sigma z off the standard one
ALPHAS = ("perfect", "symmetric:0.8", "dellclutter:0.75")
DESIGNS = ((6, 2), (12, 3))  # (S, n) of the public routes
PARTITIONS = {6: ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4, 5, 6]]), 12: ([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]],
                                                                      [[1, 2], [3, 4, 5, 6, 7, 8, 9, 10], [11, 12]])}
NOISE = 1e-12  # an entry below this share of its case's largest magnitude is rounding noise around 0


def cli_requests(plan: str) -> dict[str, list[str]]:
    """The command lines of each CLI output, by output name."""
    fam = [f"--family {f}" + (f" --params {p}" if p else "") for f, p in FAMILIES]
    regular = [f for f in fam if "uniform" not in f]  # the uniform family has no Fisher information
    fisher = [f"fisher {f} {d} --alpha {a}" for f in regular for d in ("--set-size 6 --subsets 2",
                                                                       "--set-size 12 --subsets 3") for a in ALPHAS]
    fisher += [f"fisher {f} --set-size 6 --subsets 2 --mode complete" for f in regular]
    fisher.append("fisher --family uniform --set-size 6 --subsets 2")  # a refusal; tools/cli_checks.txt has more
    fisher += [f"fisher {f} --design-file {plan} --alpha {a}" for f in fam[:3] for a in ALPHAS[1:]]
    fisher += [f"fisher {f} --set-size 6 --subsets 2 --alpha {a} --method mc --reps 4096 --seed 5"
               for f in fam[:2] for a in ALPHAS]
    entropy = [f"entropy {f} {d} --measure {m}" for f in fam for d in ("--set-size 6 --subsets 2", "--kind srs")
               for m in ("shannon", "renyi --order 0.5", "kl") if not (m == "kl" and "srs" in d)]
    sample = [f"sample {f} --set-size 6 --subsets 2 --cycles 40 --alpha {a} --seed 42" for f in fam for a in ALPHAS]
    golden = [
        "sample --family gamma --set-size 12 --subsets 3 --cycles 300 --alpha symmetric:0.8 --seed 42",
        "sample --family normal --params sigma=0.001 --set-size 6 --subsets 3 --cycles 300 --seed 42",
        f"sample --family gamma --design-file {plan} --cycles 40 --alpha symmetric:0.8 --seed 42",
        f"fisher --family exponential --design-file {plan} --alpha dellclutter:0.75 --method mc --reps 20000 --seed 3",
    ]
    checks: dict[str, list[str]] = {}
    for line in (ROOT / "tools" / "cli_checks.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            check, args = line.split(" ", 1)
            checks.setdefault(check, []).append(args)
    return {"fisher": fisher, "entropy": entropy, "sample": sample, "golden": golden, **checks}


def load(rev: str | None, name: str, into: pathlib.Path) -> types.ModuleType:
    """The working tree's src/prosinfo (rev None), or REV's unpacked into `into`, imported as package `name`."""
    pkg = ROOT / "src" / "prosinfo"
    if rev is not None:
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/prosinfo"], check=True,
                             capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(into / name, filter="data")
        pkg = into / name / "src" / "prosinfo"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bind_workloads(P: types.ModuleType) -> types.ModuleType:
    """perfbench/workloads.py imported as `{P's name}_workloads`, its `import prosinfo as P` bound to P."""
    name = f"{P.__name__}_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses looks the module up by name
    saved = sys.modules.get("prosinfo")
    sys.modules["prosinfo"] = P
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["prosinfo"]
        else:
            sys.modules["prosinfo"] = saved
    return module


@contextlib.contextmanager
def full_precision(P: types.ModuleType) -> tp.Iterator[None]:
    """Every number of a report printed by repr, so that run_custom's report memo never serves a six-decimal one."""
    fixed, P.cli._fixed = P.cli._fixed, lambda value: repr(float(value))
    try:
        yield
    finally:
        P.cli._fixed = fixed


def run_cli(P: types.ModuleType, line: str) -> str:
    """Exit code, stdout and stderr of one command line run from the repository root, every warning an error as
    under CI's PYTHONWARNINGS=error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), contextlib.chdir(ROOT), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = P.cli.main(line.split())
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def guarded(fn: tp.Callable[[], Value]) -> Value:
    """fn's value, or the text of the exception it raised."""
    try:
        return fn()
    except Exception as e:  # a refusal is an output too: both sides must refuse alike
        return f"{type(e).__name__}: {e}"


def table_outputs(P: types.ModuleType) -> dict[str, dict[str, Value]]:
    out = {}
    for tid in TABLE_IDS:
        cells = P.run_table(tid, P.cli.RunConfig(subcommand="table"))
        cases: dict[str, Value] = {"csv": P.cells_to_csv(cells), "md": P.cells_to_markdown(cells)}
        for c in cells:
            key = f"{c.row_label} / {c.col_label} ({c.method})"
            cases[key if key not in cases else f"{key} #{len(cases)}"] = np.array([c.estimate, c.mc_stderr])
        out[f"table.{tid}"] = cases
    return out


def mc_numbers(out: tp.Any) -> np.ndarray:
    """A LemmaCheck's two estimates with their standard errors and its reference, or an FIResult's information
    entries and then their standard errors."""
    if hasattr(out, "lambda0"):
        return np.array([out.lambda0.value, out.lambda0.std_error, out.lambda1.value, out.lambda1.std_error,
                         out.reference])
    return np.concatenate([out.matrix.as_array().ravel(), np.asarray(out.std_errors, dtype=float).ravel()])


def route_outputs(P: types.ModuleType) -> dict[str, dict[str, Value]]:
    """The public routes over DESIGNS, and the Model surface at integrate's first node array and at 64 fixed draws,
    for each member of FAMILIES and SHIFTED."""
    models = {f + (f"({p})" if p else ""): P.make_model(f, **dict(kv.split("=") for kv in p.split(",") if kv))
              for f, p in (*FAMILIES, SHIFTED)}
    draws = np.random.default_rng(20240101).random(64)
    points = {"nodes": (P.numerics._T[0], P.numerics._S[0]), "draws": (draws, 1.0 - draws)}
    routes: dict[str, tp.Callable[[tp.Any, int, int], Value]] = {
        "k_matrix": lambda m, S, n: P.k_matrix(m, n, S).as_array(),
        "h_matrix": lambda m, S, n: P.h_matrix(m, n, S).as_array(),
        "regression_fi": lambda m, S, n: np.array([r.as_array() for r in P.regression_fi(m, (-1, 0, 1), n, S)]),
        "kl_pros_srs": lambda m, S, n: np.array(P.kl_pros_srs(m, P.make_balanced_design(S, n))),
        "estimate_alphas": lambda m, S, n: np.array([[a.entries for a in row] for row in P.estimate_alphas(
            m, S, PARTITIONS[S], (0.5, 0.9))]),
    }
    surface: dict[str, tp.Callable[[tp.Any, np.ndarray, np.ndarray], Value]] = {
        "quantile_scores": lambda m, t, s: np.array(m.quantile_scores(t, s)),
        "score_cdf": lambda m, t, s: m.score_cdf(m.quantile(t, s)),
        "score_logpdf": lambda m, t, s: m.score_logpdf(m.quantile(t, s)),
        "neg_hessian": lambda m, t, s: m.neg_hessian(m.quantile(t, s), 0.75, -1.25),
    }
    out = {f"route.{name}": {f"{label} S={S} n={n}": guarded(lambda: fn(m, S, n))
                             for label, m in models.items() for S, n in DESIGNS} for name, fn in routes.items()}
    out["route.kl_likelihood_chain"] = {
        f"{label} S={S} n={n} shift={shift:+}": guarded(lambda: np.array(P.kl_likelihood_chain(
            m, P.make_balanced_design(S, n), shift))) for label, m in models.items() for S, n in DESIGNS
        for shift in (-0.5, 0.5)}
    out.update({f"model.{name}": {f"{label} at {at}": guarded(lambda: fn(m, *ts))
                                  for label, m in models.items() for at, ts in points.items()}
                for name, fn in surface.items()})
    return out


def manifest(P: types.ModuleType, plan: str) -> dict[str, dict[str, Value]]:
    """Every output of the manifest, by output name and case."""
    W = bind_workloads(P)
    out = table_outputs(P)
    out["grid"] = {W.grid_key(e["family"], e["set_size"], e["n"], e["p"]):
                   guarded(lambda: np.array(W.grid_execute(W.Request(0, "", e)))) for e in W.grid_catalogue()}
    with full_precision(P):
        for name, lines in cli_requests(plan).items():
            out[name] = {line.replace(plan, "PLAN"): guarded(lambda: run_cli(P, line)) for line in lines}
        out["query"] = {f"{W.query_key(e)} seed={seed}": guarded(lambda: W.query_execute(W.Request(0, "", e, seed)))
                        for seed in QUERY_SEEDS for e in W.query_catalogue()}
    out.update(route_outputs(P))
    for workers in (1, 2):
        out[f"mc.w{workers}"] = {
            f"{W.mc_key(e)} seed={seed}": guarded(lambda: mc_numbers(W.mc_call(e, "mc", seed, workers)))
            for seed, e in enumerate(W.mc_catalogue(), start=1)
        }
    return out


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\binf\b|\bnan\b)")


def ulps(x: float, y: float) -> int:
    """The distance in units in the last place between two doubles: float order as integer order, -0.0 at 0."""
    i, j = (int(np.float64(v).view(np.int64)) for v in (x, y))
    return abs((i if i >= 0 else -(2**63) - i) - (j if j >= 0 else -(2**63) - j))


def distance(a: Value, b: Value) -> tuple[float, str]:
    """(relative difference, note) between two values whose bits differ: the largest |a - b| / max(|a|, |b|) over
    the entries that are not rounding noise, with that entry's ulp distance; text compares its numbers where only
    they differ.  inf where shapes, text or a non-finite entry differ."""
    if isinstance(a, str) and isinstance(b, str):
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
            line = next(i for i, (x, y) in enumerate(zip(a.splitlines() + [""], b.splitlines() + [""]), 1) if x != y)
            return math.inf, f"text differs at line {line}"
        a, b = (np.array([float(t) for t in _NUMBER.findall(v)]) for v in (a, b))
    elif isinstance(a, str) or isinstance(b, str):
        return math.inf, "a number on one side, text on the other"
    a, b = np.asarray(a, dtype=np.float64).ravel(), np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        return math.inf, "shapes differ"
    finite = np.isfinite(a) & np.isfinite(b)
    if not (finite | (a == b) | (np.isnan(a) & np.isnan(b))).all():
        return math.inf, "a non-finite entry differs"
    big = np.where(finite, np.maximum(np.abs(a), np.abs(b)), 0.0)
    kept = big > NOISE * big.max(initial=0.0)  # entries below this are rounding noise around 0
    if (a[kept] == b[kept]).all():
        return 0.0, f"only entries below {NOISE:g} of the largest magnitude moved"
    a, b, big = a[kept], b[kept], big[kept]
    worst = int(np.argmax(np.abs(a - b) / big))
    rel = float(abs(a[worst] - b[worst]) / big[worst])
    return rel, f"relative {rel:.3g}, {ulps(a[worst], b[worst])} ulp"


def same(a: Value, b: Value) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def compare(name: str, left: dict[str, Value], right: dict[str, Value]) -> tuple[bool, str]:
    """(every case keeps its bits, the report line) of one output."""
    missing = sorted(left.keys() ^ right.keys())
    moved = [case for case in left if case in right and not same(left[case], right[case])]
    if not moved and not missing:
        return True, f"{name}: same bits ({len(left)} cases)"
    worst, note, case = max((*distance(left[c], right[c]), c) for c in moved) if moved else (0.0, "", "")
    line = f"{name}: {len(moved)} of {len(left)} cases moved"
    if moved:
        line += f"; worst {case!r}: {note}"
    if missing:
        line += f"; {len(missing)} cases on one side only, first {missing[0]!r}"
    return False, line


def main(argv: tp.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision compared (git archive REV src/prosinfo)")
    parser.add_argument("rev2", nargs="?", help="compare with this revision instead of the working tree")
    parser.add_argument("--allow", action="append", default=[], metavar="NAME",
                        help="an output expected to move (fnmatch pattern, e.g. 'table.*'); repeatable")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        plan = pathlib.Path(tmp) / "plan.txt"
        plan.write_text(PLAN)
        sides = [load(rev, name, pathlib.Path(tmp)) for rev, name in ((args.rev, "prosinfo_a"),
                                                                      (args.rev2, "prosinfo_b"))]
        left, right = (manifest(P, str(plan)) for P in sides)
    pairs = [(name, left[name], right.get(name, {})) for name in left]
    pairs += [(name, {}, right[name]) for name in right if name not in left]
    pairs.append(("mc.w2_vs_w1", right["mc.w1"], right["mc.w2"]))
    moved = failed = 0
    for name, a, b in pairs:
        ok, line = compare(name, a, b)
        allowed = not ok and any(fnmatch.fnmatchcase(name, pattern) for pattern in args.allow)
        print(line + (" (allowed)" if allowed else ""))
        moved += not ok
        failed += not ok and not allowed
    verdict = f"{moved} outputs moved, {failed} of them not allowed" if moved else "same bits"
    print(f"{verdict}: {args.rev} against {args.rev2 or 'the working tree'}, {sum(map(len, right.values()))} cases "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
