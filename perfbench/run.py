"""prosinfo benchmark: one closed-loop client runs a workload against the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-quadrature --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (see BENCHMARK.json), with request
times scaled to the reference host's speed by a probe timed between requests
(see _probe); ``--trace 1`` re-runs the list with every prosinfo module wrapped
by perfbench/recorder.py and prints the per-layer metrics.  Both print a table
(metric, value, unit, sample count) and the environment, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.  Result and trace files go to
perfbench/out/.  The exit code is 0 when the run completed, whether or not
every check passed (``correct`` says that); 2 when the source tree or the
references are missing or stale.
"""

from __future__ import annotations

import os

# BLAS threads would be a second source of parallelism next to `workers`
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import typing as tp  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 5  # fresh processes timed for setup_s
PROBE_REF_S = 0.006  # median time of _probe() on the reference host (2-vCPU Xeon)
TRACE_PREFIX_SHARE = 3  # the untraced baseline of a traced run covers 1/3 of the list
SPEEDUP_REPEATS = 3

# the metrics BENCHMARK.json lists as end-to-end, in its order
END_TO_END = ("setup_s", "wall_s", "results_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def _setup(workload: str, seed: int, seconds: float) -> tuple[tp.Any, list, dict]:
    """Import prosinfo from the checkout, build the request list and load the references."""
    if not os.path.isfile(os.path.join(SRC, "prosinfo", "__init__.py")):
        raise SetupError(f"no prosinfo source tree at {SRC}")
    sys.path.insert(0, SRC)
    import prosinfo  # noqa: F401

    if not os.path.abspath(prosinfo.__file__).startswith(SRC + os.sep):
        raise SetupError(f"prosinfo imported from {prosinfo.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]
    try:
        refs = workloads.load_references(workload)
    except (OSError, ValueError, KeyError, workloads.StaleReferences) as e:
        raise SetupError(f"cannot use the stored references: {e}") from e
    return wl, wl.requests(seed, seconds), refs


def _environment() -> dict[str, tp.Any]:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def _probe() -> float:
    """Seconds taken by a fixed mix of Python, numpy and scipy work that never touches prosinfo.

    The shared host's speed drifts by up to a quarter within minutes.  Timing
    this probe between requests measures the drift, so that request times can
    be scaled to the speed the host had when PROBE_REF_S was taken.
    """
    import numpy as np
    import scipy.integrate

    t0 = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i
    a = np.arange(8000.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    scipy.integrate.quad(lambda x: np.exp(-x * x) * x, 0.0, 3.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return time.perf_counter() - t0


def _run_list(wl, requests, refs, recorder=None, probes: list[float] | None = None) -> list[dict[str, tp.Any]]:
    """Closed loop: send each request after the previous one returned, then check it.

    With ``probes``, a _probe() time is appended before each request and after the last.
    """
    import workloads

    state: dict = {}
    records = []
    for req in requests:
        if probes is not None:
            probes.append(_probe())
        if recorder is not None:
            recorder.begin_request(req.index)
        t0 = time.perf_counter()
        err = None
        try:
            out = wl.execute(req)
        except Exception as e:  # a failed request is counted, the run goes on
            out, err = None, f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - t0
        if recorder is not None:
            recorder.end_request()
        precision = None
        if err is None:
            try:
                err = wl.check(req, out, refs, state)
                if err is None and wl.name == "mc-replicates":
                    precision = workloads.mc_precision(out, latency)
            except Exception as e:
                err = f"check raised {type(e).__name__}: {e}"
        records.append(
            {"key": req.key, "repeat": req.repeat, "latency_s": latency, "error": err, "precision": precision}
        )
    if probes is not None:
        probes.append(_probe())
    return records


def _hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    It moves less between runs than one sample quantile of a few dozen latencies.
    """
    import numpy as np
    import scipy.special

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(scipy.special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def _summary(records: list[dict], probes: list[float]) -> dict[str, tuple[float, str, int]]:
    """Timed metrics in reference-host seconds: measured times x PROBE_REF_S / median probe time."""
    probe = statistics.median(probes)
    speed = PROBE_REF_S / probe
    lat = [r["latency_s"] * speed for r in records]
    passed = sum(r["error"] is None for r in records)
    wall = sum(lat)
    p50, p90 = (1e3 * _hd_quantile(lat, p) for p in (0.5, 0.9))
    out = {
        "wall_s": (wall, "s", 1),
        "results_per_s": (passed / wall, "1/s", len(records)),
        "latency_p50_ms": (p50, "ms", len(lat)),
        "latency_p90_ms": (p90, "ms", len(lat)),
        "failed_frac": ((len(records) - passed) / len(records), "share", len(records)),
    }
    prec = [r["precision"] for r in records if r["precision"] is not None]
    if prec:
        out["mc_precision_per_s"] = (statistics.median(prec) / speed, "1/s", len(prec))
    out["wall_measured_s"] = (wall / speed, "s", 1)
    out["host_probe_ms"] = (1e3 * probe, "ms", len(probes))
    return out


def _child(args: argparse.Namespace, *extra: str, timeout: float = 170.0) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, check=True)


def _setup_seconds(args: argparse.Namespace) -> list[float]:
    """Spawn-to-ready time of fresh processes, which import, build the list and load references."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        proc = _child(args, "--setup-only", timeout=60.0)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready_at"] - t0)
    return samples


def _print_table(title: str, rows: dict[str, tuple[float, str, int]], env: dict) -> None:
    print(title)
    print(f"{'metric':34s} {'value':>16s} {'unit':8s} samples")
    for name, (value, unit, n) in rows.items():
        print(f"{name:34s} {value:16.6g} {unit:8s} {n}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))


def _write_json(name: str, doc: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _result_line(records: list[dict], metrics: dict[str, tuple[float, str, int]]) -> str:
    failed = sum(r["error"] is not None for r in records)
    for r in [r for r in records if r["error"] is not None][:5]:
        print(f"failed: {r['key']}: {r['error']}", file=sys.stderr)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
        }
    )


def _untraced(args, wl, requests, refs) -> int:
    setup = [] if args.limit else _setup_seconds(args)
    if args.limit:
        requests = requests[: args.limit]
    probes: list[float] = []
    records = _run_list(wl, requests, refs, probes=probes)
    rows = _summary(records, probes)
    rows["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    if setup:
        rows = {"setup_s": (statistics.median(setup), "s", len(setup)), **rows}
    env = _environment()
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "environment": env,
           "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in rows.items()},
           "setup_samples_s": setup, "probes_s": probes, "requests": records}
    _write_json(args.result_file or f"result-{args.workload}-seed{args.seed}.json", doc)
    _print_table(f"workload {args.workload} seed {args.seed}: {len(records)} requests, untraced", rows, env)
    print(_result_line(records, {k: rows[k] for k in END_TO_END if k in rows}))
    return 0


def _mc_speedup() -> float:
    """Time of one Monte Carlo request at workers=1 over its time at workers=2."""
    import workloads

    entry = workloads.mc_catalogue()[0]
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(SPEEDUP_REPEATS):
        for workers in (1, 2):
            t0 = time.perf_counter()
            workloads.mc_call(entry, "mc", seed=1, workers=workers)
            times[workers].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def _layer_rows(t: dict[str, float], rec, extra: dict[str, float]) -> dict[str, tuple[float, str, int]]:
    def g(name: str) -> float:
        return float(t.get(name, 0.0))

    def row(value: float, unit: str) -> tuple[float, str, int]:
        return (value, unit, 1)

    info_calls = g("information.distinct_calls")
    return {
        "numerics.quad_calls": row(g("numerics.quad_calls"), "count"),
        "numerics.integrand_evals": row(g("numerics.integrand_evals"), "count"),
        "numerics.quad_self_s": row(
            g("self.numerics.integrate_unit_interval") + g("self.numerics.integrate_expectation"), "s"),
        "numerics.quad_failures": row(g("numerics.quad_failures"), "count"),
        "numerics.mc_calls": row(g("numerics.mc_calls"), "count"),
        "numerics.mc_replicates": row(g("numerics.mc_replicates"), "count"),
        "numerics.mc_self_s": row(g("self.numerics.mc_mean_batches") + g("self.numerics.mc_mean"), "s"),
        "numerics.mc_speedup_w2": row(extra["mc_speedup_w2"], "ratio"),
        "models.quantile_calls": row(g("models.quantile.calls"), "count"),
        "models.quantile_points": row(g("models.quantile.points"), "count"),
        "models.quantile_s": row(g("models.quantile.s"), "s"),
        "models.density_calls": row(g("models.density.calls"), "count"),
        "models.density_s": row(g("models.density.s"), "s"),
        "models.score_calls": row(g("models.score.calls"), "count"),
        "models.score_s": row(g("models.score.s"), "s"),
        "models.with_params_calls": row(g("models.with_params.calls"), "count"),
        "models.fisher_unit_calls": row(g("models.fisher_unit.calls"), "count"),
        "models.fisher_unit_distinct": row(len(rec.distinct["models.fisher_unit"]), "count"),
        "models.fisher_unit_s": row(g("models.fisher_unit.s"), "s"),
        "densities.weight_calls": row(g("densities.weight.calls"), "count"),
        "densities.weight_points": row(g("densities.weight.points"), "count"),
        "densities.weight_s": row(g("densities.weight.s"), "s"),
        "densities.bernstein_calls": row(g("densities.bernstein.calls"), "count"),
        "densities.bernstein_s": row(g("densities.bernstein.s"), "s"),
        "sampling.block_draws_calls": row(g("sampling.block_draws.calls"), "count"),
        "sampling.draws": row(g("sampling.block_draws.points"), "count"),
        "sampling.block_draws_s": row(g("sampling.block_draws.s"), "s"),
        "sampling.dc_calls": row(g("sampling.dc.calls"), "count"),
        "sampling.dc_s": row(g("sampling.dc.s"), "s"),
        "sampling.pros_draw_s": row(g("sampling.pros_draw.s"), "s"),
        "sampling.csv_s": row(g("sampling.csv.s"), "s"),
        "sampling.csv_bytes": row(g("sampling.csv_bytes"), "bytes"),
        "information.fi_calls.quadrature": row(g("information.fi_calls.quadrature"), "count"),
        "information.fi_calls.mc": row(g("information.fi_calls.mc"), "count"),
        "information.fi_s": row(g("information.s"), "s"),
        "information.fi_self_s": row(g("self.information"), "s"),
        "information.distinct_ratio": row(
            len(rec.distinct["information"]) / info_calls if info_calls else 0.0, "ratio"),
        "entropy.calls": row(g("entropy.calls"), "count"),
        "entropy.s": row(g("entropy.s"), "s"),
        "designs.calls": row(g("designs.calls"), "count"),
        "designs.s": row(g("designs.s"), "s"),
        "cli.requests": row(g("cli.run_custom.calls"), "count"),
        "cli.self_s": row(g("self.cli"), "s"),
        "trace.overhead_ratio": row(extra["overhead_ratio"], "ratio"),
        "mc_precision_per_s": row(extra["mc_precision_per_s"], "1/s"),
    }


def _traced(args, wl, requests, refs) -> int:
    import recorder as recorder_mod

    prefix = max(1, len(requests) // TRACE_PREFIX_SHARE)
    base_name = f"untraced-prefix-{args.workload}-seed{args.seed}.json"
    _child(args, "--trace", "0", "--limit", str(prefix), "--result-file", base_name)
    with open(os.path.join(OUT_DIR, base_name), encoding="utf-8") as fh:
        base = json.load(fh)["metrics"]

    rec = recorder_mod.Recorder()
    rec.install()
    try:
        records = _run_list(wl, requests, refs, rec)
    finally:
        rec.uninstall()
    traced_prefix = sum(r["latency_s"] for r in records[:prefix])
    extra = {
        "overhead_ratio": traced_prefix / base["wall_measured_s"]["value"],
        "mc_precision_per_s": base.get("mc_precision_per_s", {}).get("value", 0.0),
        "mc_speedup_w2": _mc_speedup() if args.workload == "mc-replicates" else 0.0,
    }
    rows = _layer_rows(rec.totals(), rec, extra)
    env = _environment()
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "environment": env,
            "requests": [{"index": i, **r} for i, r in enumerate(records)],
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u, _n) in rows.items()}}
    rec.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"), meta)
    _print_table(
        f"workload {args.workload} seed {args.seed}: {len(records)} requests, traced "
        f"(untraced baseline: first {prefix} requests in a fresh process)", rows, env)
    print(_result_line(records, rows))
    return 0


def main(argv: tp.Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        wl, requests, refs = _setup(args.workload, args.seed, args.seconds)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"ready_at": time.time()}))
        return 0
    if args.trace:
        return _traced(args, wl, requests, refs)
    return _untraced(args, wl, requests, refs)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("grid-quadrature", "mc-replicates", "query-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="sets the request-list length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: used by the runs this script starts itself
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--limit", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--result-file", default="", help=argparse.SUPPRESS)
    return ap


if __name__ == "__main__":
    sys.exit(main())
