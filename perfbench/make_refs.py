"""Recompute every stored reference of the benchmark from the current source tree.

Usage, from the root of a checkout:

    python3 perfbench/make_refs.py

Writes perfbench/data/references.json: the RE1/RE2 pair of every grid cell, the
quadrature value of every quantity a Monte Carlo request estimates, and the
output of every query-mix catalogue entry (for Dell-Clutter entries the mean
over 40 calibration seeds; for `sample` entries the model mean and the largest
per-block mean squared deviation, which bound the sample-mean check).  It
records the commit it ran on and a digest of each workload catalogue; run.py
refuses to run a workload whose catalogue no longer matches.  Takes about four
minutes on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
import typing as tp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import prosinfo as P  # noqa: E402
import workloads as W  # noqa: E402


def _git(*args: str) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def grid_references() -> dict[str, list[float]]:
    out = {}
    for c in W.grid_catalogue():
        req = W.Request(0, W.grid_key(c["family"], c["set_size"], c["n"], c["p"]), c)
        out[req.key] = list(W.grid_execute(req))
    return out


def mc_references() -> dict[str, tp.Any]:
    out: dict[str, tp.Any] = {}
    for e in W.mc_catalogue():
        ref = W.mc_call(e, "quadrature")
        out[W.mc_key(e)] = ref if e["kind"] == "lemma" else np.diag(ref.matrix.as_array()).tolist()
    return out


def _sample_bounds(entry: dict) -> dict[str, float]:
    """Model mean and max over blocks of E[(X - mean)^2 | block], both by quadrature."""
    model = P.make_model(entry["family"])
    design = P.make_balanced_design(entry["set_size"], entry["subsets"])
    mu = model.mean()
    worst = 0.0
    for ranks in design.subsets:
        mse = P.integrate_unit_interval(
            lambda t, ranks=ranks: (model.quantile(t) - mu) ** 2 * P.block_weight(design.set_size, ranks, t)
        )
        worst = max(worst, mse)
    return {"mean": mu, "max_block_mse": worst}


def _calibrated_report(entry: dict) -> list[list[str]]:
    """The report of a Dell-Clutter entry, each number averaged over the calibration seeds.

    One calibration draw lies up to 3.4 of its own standard deviations from
    the mean over seeds, so a single-seed reference would make the 0.05 check
    fail for seeds that are not unusual at all.
    """
    reports = [W.report_pairs(P.run_custom(W.query_config(entry, seed))) for seed in W.DC_REF_SEEDS]
    out = []
    for rows in zip(*reports):
        name, first = rows[0]
        try:
            value = f"{np.mean([float(v) for _, v in rows]):.6f}"
        except ValueError:
            if any(v != first for _, v in rows):
                raise RuntimeError(f"{name} of {entry} depends on the calibration seed") from None
            value = first
        out.append([name, value])
    return out


def query_references() -> dict[str, tp.Any]:
    out: dict[str, tp.Any] = {}
    for e in W.query_catalogue():
        if e["subcommand"] == "sample":
            out[W.query_key(e)] = _sample_bounds(e)
        elif W.is_calibrated(e):
            out[W.query_key(e)] = _calibrated_report(e)
        else:
            text = P.run_custom(W.query_config(e, P.DEFAULT_SEED))
            out[W.query_key(e)] = W.report_pairs(text)
    return out


SECTIONS = {"grid": grid_references, "mc": mc_references, "query": query_references}


def main(argv: tp.Sequence[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    t0 = time.time()
    commit = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--", "src")
    refs: dict[str, tp.Any] = dict(
        commit=commit,
        src_modified=bool(dirty) if dirty != "unknown" else None,
        made_with={"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
        catalogue_sha256={
            W.REFERENCE_SECTIONS[name]: W.catalogue_digest(wl.catalogue()) for name, wl in W.WORKLOADS.items()
        },
    )
    for name, make in SECTIONS.items():
        refs[name] = make()
    with open(W.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.REFERENCES_PATH} from commit {commit} in {time.time() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
