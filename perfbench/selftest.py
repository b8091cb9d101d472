"""Self-test of the benchmark's own checkers and request generation.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Each checker must accept the stored reference and reject a perturbed copy:
an RE scaled by (1 + 1e-5), a Monte Carlo matrix shifted by 6 standard errors,
a `sample` CSV with one row dropped, a CLI report with one number bent (a
Dell-Clutter efficiency by 0.06, a Dell-Clutter determinant by 6%).  The same
seed must give the identical request list twice.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import prosinfo as P  # noqa: E402
import workloads as W  # noqa: E402

SECONDS = 35.0


def _mc_result(entry: dict, ref: list[float] | float, shift_se: float) -> object:
    """A stand-in Monte Carlo result at the reference, shifted by shift_se standard errors."""
    if entry["kind"] == "lemma":
        se = 0.01 * abs(ref)
        est = P.MCEstimate(ref + shift_se * se, se, W.MC_REPS)
        return P.LemmaCheck(lambda0=est, lambda1=P.MCEstimate(ref, se, W.MC_REPS), reference=ref)
    diag = np.asarray(ref)
    se = np.diag(0.01 * np.abs(diag))
    return P.FIResult(matrix=P.InfoMatrix(np.diag(diag) + shift_se * se), method="mc", std_errors=se,
                      replications=W.MC_REPS)


def _report(pairs: list[list[str]]) -> str:
    return "quantity,value\n" + "".join(f'"{k}","{v}"\n' for k, v in pairs)


def main() -> int:
    refs = {name: W.load_references(name) for name in W.WORKLOADS}
    cases: list[tuple[str, bool]] = []

    for name, wl in W.WORKLOADS.items():
        cases.append((f"{name}: a seed gives the identical list twice", wl.requests(7, SECONDS) == wl.requests(7, SECONDS)))
        cases.append((f"{name}: another seed reorders the list", wl.requests(7, SECONDS) != wl.requests(8, SECONDS)))

    grid = refs["grid-quadrature"]
    for req in W.grid_requests(1, SECONDS)[:6]:
        re1, re2 = grid["grid"][req.key]
        cases.append((f"grid accepts the reference of {req.key}", W.grid_check(req, (re1, re2), grid, {}) is None))
        cases.append((f"grid rejects RE1 x (1+1e-5) of {req.key}",
                      W.grid_check(req, (re1 * (1 + 1e-5), re2), grid, {}) is not None))
        cases.append((f"grid rejects RE2 x (1+1e-5) of {req.key}",
                      W.grid_check(req, (re1, re2 * (1 + 1e-5)), grid, {}) is not None))

    mc = refs["mc-replicates"]
    for req in W.mc_requests(1, SECONDS)[: len(W.MC_KINDS) * 2]:
        ref = mc["mc"][req.key]
        cases.append((f"mc accepts the reference of {req.key}",
                      W.mc_check(req, _mc_result(req.entry, ref, 0.0), mc, {}) is None))
        cases.append((f"mc rejects a 6 SE shift of {req.key}",
                      W.mc_check(req, _mc_result(req.entry, ref, 6.0), mc, {}) is not None))

    query = refs["query-mix"]
    seen = set()
    for req in W.query_requests(1, SECONDS):
        if req.key in seen:
            continue
        seen.add(req.key)
        want = query["query"][req.key]
        if req.entry["subcommand"] == "sample":
            text = W.query_execute(req)
            lines = text.splitlines(keepends=True)
            cases.append((f"query accepts a fresh sample of {req.key}", W.query_check(req, text, query, {}) is None))
            cases.append((f"query rejects a sample missing one row of {req.key}",
                          W.query_check(req, "".join(lines[:-1]), query, {}) is not None))
        else:
            cases.append((f"query accepts the reference of {req.key}",
                          W.query_check(req, _report(want), query, {}) is None))
            if W.is_calibrated(req.entry):
                # 0.05 absolute on efficiencies, 5% relative on information entries
                bends = {"re1": lambda v: v + 0.06, "det": lambda v: v * 1.06}
            else:
                bends = {name: lambda v: v * (1 + 1e-5) + 1e-5 for name in ("re1", "total", "kl(pros,srs)")}
            for name, _ in want:
                if name in bends:
                    bent = [[k, repr(bends[k](float(v))) if k == name else v] for k, v in want]
                    cases.append((f"query rejects a bent {name} of {req.key}",
                                  W.query_check(req, _report(bent), query, {}) is not None))

    bad = [name for name, ok in cases if not ok]
    for name, ok in cases:
        print(("ok      " if ok else "FAILED  ") + name)
    print(f"{len(cases) - len(bad)} of {len(cases)} self-test cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
