"""The names the benchmark in perfbench/ reads from the library must resolve.

perfbench/ calls the public API as ``P.<name>``, and its recorder counts the
per-layer metrics by wrapping the functions it names as ``module.qualname``; a
name that stops resolving would zero its metric without an error.  These tests
read perfbench/ as text and never import or write anything under it.
"""

import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import prosinfo

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# named by the recorder but gone from the library before these tests were written; the recorder's counts for
# them read 0 until the benchmark drops them
MISSING = frozenset({
    "models.quantile", "models.evaluate", "models.score_cdf", "densities.block_weight_dt", "densities.alpha_weight",
    "densities.alpha_weight_dt", "densities.bernstein", "densities.bernstein_dt", "densities.bernstein_many",
    "numerics.mc_mean",
})


def _recorder() -> tuple[dict, ast.Module]:
    """The recorder's module namespace, run from its source text, and its syntax tree."""
    path = PERFBENCH / "recorder.py"
    source = path.read_text(encoding="utf-8")
    namespace: dict = {"__name__": "perfbench_recorder_source"}
    exec(compile(source, str(path), "exec"), namespace)
    return namespace, ast.parse(source)


def _resolves(full: str) -> bool:
    module, *qualname = full.split(".")
    try:
        functools.reduce(getattr, qualname, importlib.import_module(f"prosinfo.{module}"))
    except AttributeError:
        return False
    return True


def _recorded_names() -> set[str]:
    """Every module.qualname the recorder wraps by name: its groups, its information sets and its hooks."""
    namespace, tree = _recorder()
    names = {full for members in namespace["_GROUPS"].values() for full in members}
    names |= namespace["_DISTINCT_INFO"] | namespace["_FI_BY_METHOD"]
    wrap = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_wrap")
    names |= {key.value for node in ast.walk(wrap) if isinstance(node, ast.Dict) for key in node.keys}
    call = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_call")
    names |= {
        right.value for node in ast.walk(call) if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name) and node.left.id == "full"
        for right in node.comparators if isinstance(right, ast.Constant) and isinstance(right.value, str)
    }
    return names


def test_every_public_name_the_benchmark_calls_resolves():
    used = {m for path in PERFBENCH.glob("*.py") for m in re.findall(r"\bP\.([A-Za-z_]\w*)", path.read_text("utf-8"))}
    assert len(used) >= 20
    assert sorted(name for name in used if not hasattr(prosinfo, name)) == []


def test_every_function_the_recorder_names_resolves():
    namespace, _ = _recorder()
    for module in namespace["MODULES"]:
        importlib.import_module(f"prosinfo.{module}")
    names = _recorded_names()
    assert {"sampling.estimate_alpha_for_partition", "numerics.mc_mean_batches",
            "information.verify_lemma_identity"} <= names
    assert sorted(name for name in names - MISSING if not _resolves(name)) == []
    # a missing name that comes back belongs in the recorder's groups again, and off this list
    assert sorted(name for name in MISSING if _resolves(name)) == []
    assert MISSING <= names


def test_block_draws_takes_its_count_where_the_recorder_reads_it():
    namespace, _ = _recorder()
    position, keyword, _ = namespace["_POINTS_ARG"]["sampling.block_draws"]
    params = list(inspect.signature(prosinfo.sampling.block_draws).parameters)
    assert params[position] == keyword == "count" and len(params) == 6
