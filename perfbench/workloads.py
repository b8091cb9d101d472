"""Request lists, executors and correctness checks of the three benchmark workloads.

Each workload turns ``(seed, seconds)`` into a fixed request list.  The seed
only orders the list and picks Monte Carlo / calibration seeds; ``seconds``
sets how many rounds of the workload's catalogue the list holds, sized so
that one list takes about that long at the commit the references were made
from.  The library sees only the generated inputs.

A checker returns ``None`` for a correct result and a one-line reason
otherwise.  Checks that compare two requests of one run (the RE(p) = RE(1-p)
symmetry of the grid) keep their state in a per-run dict.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import typing as tp

import numpy as np

import prosinfo as P

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(HERE, "data")
REFERENCES_PATH = os.path.join(DATA_DIR, "references.json")

QUAD_RTOL = 1e-6  # quadrature-only numbers against the stored references
MC_SE_LIMIT = 5.0  # Monte Carlo estimates against their quadrature references
DC_ABS_TOL = 0.05  # calibration-dependent efficiencies (acceptance criterion 5)
DC_REL_TOL = 0.05  # calibration-dependent information entries and determinants
DC_REF_SEEDS = range(1, 41)  # calibration seeds averaged into a calibrated reference
PRINT_RESOLUTION = 1e-6  # the CLI prints numbers with six decimals


@dataclasses.dataclass(frozen=True)
class Request:
    """One closed-loop request: a catalogue entry plus the seed it runs with."""

    index: int
    key: str
    entry: tp.Mapping[str, tp.Any]
    seed: int = 0
    repeat: bool = False


def catalogue_digest(entries: tp.Sequence[tp.Mapping[str, tp.Any]]) -> str:
    text = json.dumps(list(entries), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rounds(seconds: float, round_seconds: float, lo: int, hi: int | None = None) -> int:
    n = max(lo, int(round(seconds / round_seconds)))
    return n if hi is None else min(n, hi)


def _rel_close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """``1-2|3-6`` -> ((1, 2), (3, 4, 5, 6))."""
    blocks = []
    for piece in text.split("|"):
        lo, _, hi = piece.partition("-")
        blocks.append(tuple(range(int(lo), int(hi or lo) + 1)))
    return tuple(blocks)


# -- grid-quadrature ----------------------------------------------------------

GRID_FAMILIES = ("normal", "exponential", "logistic")
GRID_DESIGNS = ((6, 2), (6, 3), (12, 2), (12, 3), (12, 4))
# p values in the order they join the list as --seconds grows.  Generic p come
# first, with the two members of a symmetric pair adjacent; p = 0 and p = 1,
# whose alphas have zero entries that the weights skip, come last.
GRID_P_ORDER = (0.5, 0.3, 0.7, 0.2, 0.8, 0.1, 0.9, 0.4, 0.6, 0.0, 1.0)
GRID_P_ROUND_S = 9.5  # seconds per generic p value (15 cells) at the reference commit


def grid_key(family: str, S: int, n: int, p: float) -> str:
    return f"{family}/S={S}/n={n}/p={p:.1f}"


def grid_catalogue() -> list[dict[str, tp.Any]]:
    return [
        {"family": f, "set_size": S, "n": n, "p": p}
        for p in sorted(GRID_P_ORDER)
        for f in GRID_FAMILIES
        for S, n in GRID_DESIGNS
    ]


def grid_requests(seed: int, seconds: float) -> list[Request]:
    ps = GRID_P_ORDER[: _rounds(seconds, GRID_P_ROUND_S, 1, len(GRID_P_ORDER))]
    cells = [
        {"family": f, "set_size": S, "n": n, "p": p}
        for p in ps
        for f in GRID_FAMILIES
        for S, n in GRID_DESIGNS
    ]
    random.Random(seed).shuffle(cells)
    return [
        Request(i, grid_key(c["family"], c["set_size"], c["n"], c["p"]), c) for i, c in enumerate(cells)
    ]


def grid_execute(req: Request) -> tuple[float, float]:
    e = req.entry
    model = P.make_model(e["family"])
    n = e["n"]
    alpha = P.make_symmetric_alpha(n, e["p"])
    num = P.fi_pros_marginal(model, P.make_balanced_design(e["set_size"], n), alpha).matrix
    re1 = P.relative_efficiencies(num, P.fisher_srs(model, n))
    re2 = P.relative_efficiencies(num, P.fi_pros_marginal(model, P.rss_design(n), alpha).matrix)
    return re1, re2


def grid_check(req: Request, out: tp.Any, refs: dict, state: dict) -> str | None:
    e = req.entry
    re1, re2 = (float(v) for v in out)
    want = refs["grid"][req.key]
    for name, got, ref in (("RE1", re1, want[0]), ("RE2", re2, want[1])):
        if not _rel_close(got, ref, QUAD_RTOL):
            return f"{name} {got!r} is not within {QUAD_RTOL:g} of reference {ref!r}"
    n, p = e["n"], e["p"]
    if abs(p - 1.0 / n) < 1e-12 and not _rel_close(re1, 1.0, QUAD_RTOL):
        return f"RE1 at p = 1/n is {re1!r}, not 1"
    if n == 2:
        mirror = grid_key(e["family"], e["set_size"], n, round(1.0 - p, 1))
        if mirror != req.key and mirror in state:
            m1, m2 = state[mirror]
            if not (_rel_close(re1, m1, QUAD_RTOL) and _rel_close(re2, m2, QUAD_RTOL)):
                return f"RE(p) != RE(1-p): {(re1, re2)} vs {(m1, m2)}"
        state[req.key] = (re1, re2)
    return None


# -- mc-replicates --------------------------------------------------------------

MC_FAMILIES = ("normal", "exponential", "logistic", "gamma")
MC_KINDS: tuple[dict[str, tp.Any], ...] = (
    {"kind": "complete", "n": 2, "set_size": 6},
    {"kind": "complete", "n": 3, "set_size": 12},
    {"kind": "marginal", "n": 2, "set_size": 6, "p": 0.8},
    {"kind": "marginal", "n": 3, "set_size": 12, "p": 0.7},
    {"kind": "unbalanced", "set_size": 6, "partition": "1-2|3-6", "p": 0.8},
    {"kind": "unbalanced", "set_size": 6, "partition": "1|2-5|6", "p": 0.8},
    {"kind": "lemma", "n": 2, "set_size": 6, "g": "F(1-F)"},
)
MC_REPS = 50_000
MC_WORKERS = 2
MC_ROUND_S = 7.2  # seconds per catalogue round (28 requests) at the reference commit
MC_MIN_ROUNDS = 4  # 112 requests, so at least 10 lie beyond p90


def lemma_g(model: P.Model) -> tp.Callable[[np.ndarray], np.ndarray]:
    """G(x) = F(x) (1 - F(x)) for the rank-sum identity; both sides equal n (S-1) E[G(X)] = n (S-1) / 6.

    The identity's replicates weigh G by 1/F and 1/(1-F).  With this G both
    weighted terms stay in [0, 1], so the estimator has finite variance for
    every family; G(x) = x^2 has none for the normal and logistic families,
    whose left tail makes x^2 / F(x) too heavy.
    """

    def g(x: np.ndarray) -> np.ndarray:
        F = np.asarray(model.cdf(x), dtype=float)
        return F * (1.0 - F)

    return g


def mc_key(entry: tp.Mapping[str, tp.Any]) -> str:
    return "/".join(f"{k}={entry[k]}" for k in sorted(entry))


def mc_catalogue() -> list[dict[str, tp.Any]]:
    return [{"family": f, **kind} for f in MC_FAMILIES for kind in MC_KINDS]


def mc_requests(seed: int, seconds: float) -> list[Request]:
    rng = random.Random(seed)
    entries = mc_catalogue()
    out: list[Request] = []
    for _ in range(_rounds(seconds, MC_ROUND_S, MC_MIN_ROUNDS)):
        order = list(entries)
        rng.shuffle(order)
        for e in order:
            out.append(Request(len(out), mc_key(e), e, seed=rng.getrandbits(31)))
    return out


def unbalanced_design(entry: tp.Mapping[str, tp.Any]) -> P.UnbalancedDesign:
    """One judgment set per block, each measuring its own block (the table-10 layout)."""
    blocks = parse_partition(entry["partition"])
    plans = tuple(P.SetPlan(1, blocks, r) for r in range(1, len(blocks) + 1))
    return P.UnbalancedDesign(set_size=entry["set_size"], sets=plans)


def mc_call(entry: tp.Mapping[str, tp.Any], method: str, seed: int = 0, workers: int = MC_WORKERS) -> tp.Any:
    """Run one catalogue entry by Monte Carlo or, for references, by quadrature."""
    model = P.make_model(entry["family"])
    kind = entry["kind"]
    opts: dict[str, tp.Any] = {"method": method}
    if method == "mc":
        opts.update(reps=MC_REPS, seed=seed, workers=workers)
    if kind == "complete":
        return P.fi_pros_complete(model, entry["n"], entry["set_size"], **opts)
    if kind == "marginal":
        n = entry["n"]
        design = P.make_balanced_design(entry["set_size"], n)
        return P.fi_pros_marginal(model, design, P.make_symmetric_alpha(n, entry["p"]), **opts)
    if kind == "unbalanced":
        ud = unbalanced_design(entry)
        alpha = P.make_symmetric_alpha(ud.n_subsets(1), entry["p"])
        return P.fi_unbalanced(model, ud, {1: alpha}, **opts)
    if kind == "lemma":
        design = P.make_balanced_design(entry["set_size"], entry["n"])
        g = lemma_g(model)
        if method == "mc":
            return P.verify_lemma_identity(model, design, g, reps=MC_REPS, seed=seed, workers=workers)
        return entry["n"] * (entry["set_size"] - 1) * P.integrate_expectation(model, lambda v: float(g(v)))
    raise ValueError(f"unknown Monte Carlo request kind {kind!r}")


def mc_execute(req: Request) -> tp.Any:
    return mc_call(req.entry, "mc", req.seed)


def mc_estimates(out: tp.Any) -> list[tuple[float, float]]:
    """(estimate, standard error) of each checked quantity of an MC result."""
    if isinstance(out, P.LemmaCheck):
        return [(out.lambda0.value, out.lambda0.std_error), (out.lambda1.value, out.lambda1.std_error)]
    diag = np.diag(out.matrix.as_array())
    se = np.diag(np.asarray(out.std_errors))
    return list(zip(diag.tolist(), se.tolist()))


def mc_check(req: Request, out: tp.Any, refs: dict, state: dict) -> str | None:
    want = refs["mc"][req.key]
    if isinstance(out, P.LemmaCheck):
        if not _rel_close(out.reference, want, QUAD_RTOL):
            return f"lemma quadrature side {out.reference!r} is not within {QUAD_RTOL:g} of {want!r}"
        refs_each = [want, want]
    else:
        refs_each = want
    estimates = mc_estimates(out)
    if len(estimates) != len(refs_each):
        return f"{len(estimates)} estimates for {len(refs_each)} references"
    for j, ((est, se), ref) in enumerate(zip(estimates, refs_each)):
        if not (se > 0.0 and abs(est - ref) <= MC_SE_LIMIT * se):
            return f"entry {j}: {est!r} with SE {se!r} is not within {MC_SE_LIMIT:g} SE of reference {ref!r}"
    return None


def mc_precision(out: tp.Any, seconds: float) -> float:
    """1 / (max_j (SE_j / I_j)^2 x request seconds): precision bought per second."""
    worst = max((se / est) ** 2 for est, se in mc_estimates(out))
    return 1.0 / (worst * seconds)


# -- query-mix -------------------------------------------------------------------

DESIGN_FILE = "unbalanced_design.txt"  # in DATA_DIR
QM_ROUND_S = 30.0  # seconds per catalogue round (each entry twice) at the reference commit

# RunConfig fields of the catalogue; the seed comes from the workload seed
_F, _E, _S = "fisher", "entropy", "sample"
QUERY_CATALOGUE: tuple[dict[str, tp.Any], ...] = (
    # fisher, complete data
    {"subcommand": _F, "family": "normal", "set_size": 6, "subsets": 2, "mode": "complete"},
    {"subcommand": _F, "family": "exponential", "set_size": 6, "subsets": 2, "mode": "complete"},
    {"subcommand": _F, "family": "logistic", "set_size": 12, "subsets": 3, "mode": "complete"},
    {"subcommand": _F, "family": "extreme_value", "set_size": 6, "subsets": 3, "mode": "complete"},
    {"subcommand": _F, "family": "gamma", "set_size": 6, "subsets": 2, "mode": "complete"},
    {"subcommand": _F, "family": "exp_mixture", "set_size": 6, "subsets": 2, "mode": "complete"},
    # fisher, marginal
    {"subcommand": _F, "family": "normal", "set_size": 6, "subsets": 2, "alpha": "perfect"},
    {"subcommand": _F, "family": "normal", "set_size": 6, "subsets": 2, "alpha": "symmetric:0.8"},
    {"subcommand": _F, "family": "exponential", "set_size": 12, "subsets": 3, "alpha": "symmetric:0.7"},
    {"subcommand": _F, "family": "logistic", "set_size": 6, "subsets": 2, "alpha": "symmetric:0.9"},
    {"subcommand": _F, "family": "exponential", "set_size": 6, "subsets": 2, "alpha": "perfect"},
    {"subcommand": _F, "family": "gamma", "set_size": 6, "subsets": 3, "alpha": "symmetric:0.6"},
    {"subcommand": _F, "family": "normal", "set_size": 6, "subsets": 2, "alpha": "dellclutter:0.9"},
    {"subcommand": _F, "family": "exponential", "set_size": 6, "subsets": 3, "alpha": "dellclutter:0.75"},
    {"subcommand": _F, "family": "logistic", "set_size": 12, "subsets": 2, "alpha": "dellclutter:0.5"},
    {"subcommand": _F, "family": "gamma", "set_size": 6, "subsets": 2, "alpha": "dellclutter:0.9"},
    # fisher, unbalanced design file
    {"subcommand": _F, "family": "gamma", "set_size": 12, "subsets": 4, "mode": "complete"},
    {"subcommand": _F, "family": "exponential", "mode": "unbalanced", "design_file": DESIGN_FILE,
     "alpha": "symmetric:0.8"},
    {"subcommand": _F, "family": "exponential", "mode": "unbalanced", "design_file": DESIGN_FILE,
     "alpha": "dellclutter:0.9"},
    {"subcommand": _F, "family": "gamma", "mode": "unbalanced", "design_file": DESIGN_FILE},
    # entropy
    {"subcommand": _E, "family": "normal", "set_size": 6, "subsets": 2, "measure": "shannon"},
    {"subcommand": _E, "family": "exponential", "subsets": 3, "kind": "rss", "measure": "shannon"},
    {"subcommand": _E, "family": "logistic", "subsets": 2, "kind": "srs", "measure": "shannon"},
    {"subcommand": _E, "family": "extreme_value", "set_size": 6, "subsets": 3, "measure": "shannon"},
    {"subcommand": _E, "family": "gamma", "set_size": 6, "subsets": 2, "measure": "shannon"},
    {"subcommand": _E, "family": "uniform", "set_size": 2, "subsets": 2, "measure": "shannon"},
    {"subcommand": _E, "family": "uniform", "set_size": 6, "subsets": 3, "measure": "shannon"},
    {"subcommand": _E, "family": "normal", "set_size": 6, "subsets": 2, "measure": "renyi", "order": 0.5},
    {"subcommand": _E, "family": "exponential", "set_size": 6, "subsets": 3, "measure": "renyi", "order": 0.7},
    {"subcommand": _E, "family": "logistic", "subsets": 2, "kind": "rss", "measure": "renyi", "order": 0.5},
    {"subcommand": _E, "family": "uniform", "set_size": 6, "subsets": 2, "measure": "renyi", "order": 0.5},
    {"subcommand": _E, "family": "exp_mixture", "set_size": 6, "subsets": 2, "measure": "renyi", "order": 0.5},
    {"subcommand": _E, "family": "normal", "set_size": 6, "subsets": 2, "measure": "kl"},
    {"subcommand": _E, "family": "logistic", "set_size": 6, "subsets": 3, "measure": "kl"},
    {"subcommand": _E, "family": "gamma", "set_size": 12, "subsets": 4, "measure": "kl"},
    {"subcommand": _E, "family": "extreme_value", "set_size": 12, "subsets": 3, "measure": "kl"},
    {"subcommand": _E, "family": "exp_mixture", "set_size": 6, "subsets": 2, "measure": "kl"},
    {"subcommand": _E, "family": "uniform", "set_size": 4, "subsets": 2, "measure": "kl"},
    # sample
    {"subcommand": _S, "family": "normal", "set_size": 6, "subsets": 2, "cycles": 2000},
    {"subcommand": _S, "family": "exponential", "set_size": 6, "subsets": 3, "cycles": 3000},
    {"subcommand": _S, "family": "logistic", "set_size": 12, "subsets": 3, "cycles": 2000,
     "alpha": "symmetric:0.8"},
    {"subcommand": _S, "family": "extreme_value", "set_size": 6, "subsets": 2, "cycles": 2500},
    {"subcommand": _S, "family": "gamma", "set_size": 6, "subsets": 2, "cycles": 2000,
     "alpha": "dellclutter:0.75"},
    {"subcommand": _S, "family": "exp_mixture", "set_size": 6, "subsets": 2, "cycles": 2000},
    {"subcommand": _S, "family": "normal", "set_size": 12, "subsets": 4, "cycles": 3000,
     "alpha": "symmetric:0.6"},
    {"subcommand": _S, "family": "logistic", "set_size": 6, "subsets": 2, "cycles": 4000},
    {"subcommand": _S, "family": "normal", "set_size": 6, "subsets": 3, "cycles": 2000,
     "alpha": "dellclutter:0.9"},
    {"subcommand": _S, "family": "gamma", "set_size": 12, "subsets": 2, "cycles": 2500},
    {"subcommand": _S, "family": "exponential", "set_size": 4, "subsets": 2, "cycles": 3000,
     "alpha": "symmetric:0.9"},
    {"subcommand": _S, "family": "extreme_value", "set_size": 12, "subsets": 4, "cycles": 2000},
)


def query_key(entry: tp.Mapping[str, tp.Any]) -> str:
    return " ".join(f"{k}={entry[k]}" for k in sorted(entry))


def query_catalogue() -> list[dict[str, tp.Any]]:
    return [dict(e) for e in QUERY_CATALOGUE]


def query_requests(seed: int, seconds: float) -> list[Request]:
    """Each round holds every catalogue entry twice: once fresh, once as an exact repeat.

    The seed orders the first occurrences and places each repeat at a random
    later position; it also sets the RunConfig seed (calibration and sample
    draws).  Every seed therefore asks for the same work in another order.
    """
    rng = random.Random(seed)
    out: list[Request] = []
    for rnd in range(_rounds(seconds, QM_ROUND_S, 1)):
        order = list(QUERY_CATALOGUE)
        rng.shuffle(order)
        slots: list[tuple[dict[str, tp.Any], bool]] = [(e, False) for e in order]
        for pos, e in enumerate(order):
            at = rng.randint(slots.index((e, False)) + 1, len(slots))
            slots.insert(at, (e, True))
        cfg_seed = 1 + seed * 1000 + rnd
        out.extend(
            Request(len(out) + i, query_key(e), e, seed=cfg_seed, repeat=rep) for i, (e, rep) in enumerate(slots)
        )
    return out


def query_config(entry: tp.Mapping[str, tp.Any], seed: int) -> P.RunConfig:
    fields = dict(entry)
    if "design_file" in fields:
        fields["design_file"] = os.path.join(DATA_DIR, fields["design_file"])
    return P.RunConfig(**fields, seed=seed)


def query_execute(req: Request) -> str:
    return P.run_custom(query_config(req.entry, req.seed))


def report_pairs(text: str) -> list[list[str]]:
    """The (quantity, value) rows of a fisher/entropy CSV report, in order."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["quantity", "value"]:
        raise ValueError("report does not start with the quantity,value header")
    return [list(r) for r in rows[1:]]


def _sample_check(entry: tp.Mapping[str, tp.Any], text: str, want: dict) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "cycle,set,subset,value,true_position":
        return "sample CSV header is wrong"
    n = entry["subsets"]
    rows = lines[1:]
    if len(rows) != entry["cycles"] * n:
        return f"sample CSV has {len(rows)} rows, expected {entry['cycles'] * n}"
    data = np.array([r.split(",") for r in rows], dtype=float)
    subset, values, position = data[:, 2].astype(int), data[:, 3], data[:, 4].astype(int)
    if entry.get("alpha", "perfect") == "perfect":
        m = entry["set_size"] // n
        if np.any((position - 1) // m + 1 != subset):
            return "a true_position lies outside its judged block under a perfect ranker"
    se = math.sqrt(want["max_block_mse"] / len(rows))
    if abs(values.mean() - want["mean"]) > MC_SE_LIMIT * se:
        return f"sample mean {values.mean()!r} is more than {MC_SE_LIMIT:g} SE from the model mean {want['mean']!r}"
    return None


def is_calibrated(entry: tp.Mapping[str, tp.Any]) -> bool:
    """Whether the entry's alpha comes from a seeded Dell-Clutter calibration."""
    return entry.get("alpha", "perfect").startswith("dellclutter:")


def query_check(req: Request, out: tp.Any, refs: dict, state: dict) -> str | None:
    e = req.entry
    want = refs["query"][req.key]
    if e["subcommand"] == _S:
        return _sample_check(e, out, want)
    got = report_pairs(out)
    if [name for name, _ in got] != [name for name, _ in want]:
        return f"report quantities {[n for n, _ in got]} differ from {[n for n, _ in want]}"
    calibrated = is_calibrated(e)
    for (name, value), (_, ref) in zip(got, want):
        try:
            g, r = float(value), float(ref)
        except ValueError:
            if value != ref:
                return f"{name} is {value!r}, expected {ref!r}"
            continue
        if calibrated and name in ("re1", "re2"):
            ok = abs(g - r) <= DC_ABS_TOL
        elif calibrated:
            ok = _rel_close(g, r, DC_REL_TOL, PRINT_RESOLUTION)
        else:
            ok = _rel_close(g, r, QUAD_RTOL, PRINT_RESOLUTION)
        if not ok:
            return f"{name} is {g!r}, reference {r!r}"
    return None


# -- registry ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    catalogue: tp.Callable[[], list[dict[str, tp.Any]]]
    requests: tp.Callable[[int, float], list[Request]]
    execute: tp.Callable[[Request], tp.Any]
    check: tp.Callable[[Request, tp.Any, dict, dict], str | None]


WORKLOADS: dict[str, Workload] = {
    "grid-quadrature": Workload("grid-quadrature", grid_catalogue, grid_requests, grid_execute, grid_check),
    "mc-replicates": Workload("mc-replicates", mc_catalogue, mc_requests, mc_execute, mc_check),
    "query-mix": Workload("query-mix", query_catalogue, query_requests, query_execute, query_check),
}

REFERENCE_SECTIONS = {"grid-quadrature": "grid", "mc-replicates": "mc", "query-mix": "query"}


class StaleReferences(RuntimeError):
    """The stored references were made for another catalogue."""


def load_references(workload: str) -> dict:
    """References of one workload, refused if the catalogue changed since they were made."""
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    section = REFERENCE_SECTIONS[workload]
    digest = catalogue_digest(WORKLOADS[workload].catalogue())
    stored = refs["catalogue_sha256"].get(section)
    if stored != digest:
        raise StaleReferences(
            f"references for {workload} were made for catalogue {stored}, the workload defines {digest}; "
            "run perfbench/make_refs.py"
        )
    return refs
