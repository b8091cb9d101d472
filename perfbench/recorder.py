"""Per-module call recorder for the traced benchmark run.

The recorder wraps, from outside the package, the public functions of each
prosinfo module and the public methods of the classes they define.  Every
module-level binding of a wrapped function is replaced, so a name imported into
another module (``prosinfo.entropy.block_weight``, ``prosinfo.fisher_srs``) is
traced as well.  ``uninstall`` restores the originals.

Accounting:

* A call into a module from outside it opens a frame; calls nested within the
  same module fold into the outer frame.
* A frame's self time is its duration minus the time its child frames cover.
  The batches of a Monte Carlo reduction run on worker threads, so their
  coverage is the union of their intervals.  Self time summed over a module
  can therefore exceed wall time when two workers run at once.
* Frames are kept in memory as spans (id, parent span, request id, thread,
  module, name, start, end, self seconds) and written out by ``dump``.  Calls
  made inside a quadrature integrand or a Monte Carlo batch happen once per
  quadrature point or chunk; those are aggregated per request into
  (calls, seconds, self seconds) per function instead, and the trace file says so.
* Counters tick at every call, nested ones included.  A counter group (say all
  density evaluations) counts only the outermost call of the group on each
  thread, so its seconds never count the same interval twice.
"""

from __future__ import annotations

import collections
import dataclasses
import importlib
import inspect
import itertools
import json
import threading
import time
import typing as tp

import numpy as np

MODULES = ("numerics", "models", "designs", "densities", "sampling", "information", "entropy", "cli")

# counter group -> functions (module.qualname) it covers
_GROUPS: dict[str, tuple[str, ...]] = {
    "models.quantile": ("models.quantile", "models.Model.quantile"),
    "models.density": ("models.evaluate", "models.Model.pdf", "models.Model.cdf", "models.Model.logpdf"),
    "models.score": ("models.score_cdf", "models.Model.score_cdf", "models.Model.score_logpdf"),
    "models.with_params": ("models.Model.with_params",),
    "models.fisher_unit": ("models.fisher_srs_unit", "models.Model.fisher_srs_unit"),
    "densities.weight": tuple(
        f"densities.{f}"
        for f in ("block_weight", "block_weight_dt", "alpha_weight", "alpha_weight_dt", "unbalanced_weight")
    ),
    "densities.bernstein": ("densities.bernstein", "densities.bernstein_dt", "densities.bernstein_many"),
    "sampling.block_draws": ("sampling.block_draws",),
    "sampling.dc": (
        "sampling.estimate_dell_clutter_alpha",
        "sampling.estimate_alpha_for_partition",
        "sampling.estimate_unbalanced_alphas",
    ),
    "sampling.pros_draw": ("sampling.draw_pros", "sampling.draw_unbalanced_pros", "sampling.draw_srs"),
    "sampling.csv": ("sampling.sample_to_csv",),
    "cli.run_custom": ("cli.run_custom",),
}
# groups that cover a whole module
_MODULE_GROUPS = ("information", "entropy", "designs")

# argument giving the evaluation points of a group: (position, keyword, points of its value)
_POINTS_ARG: dict[str, tuple[int, str, tp.Callable[[tp.Any], int]]] = {
    "models.quantile": (-1, "u", np.size),
    "densities.weight": (-1, "t", np.size),
    "sampling.block_draws": (5, "count", int),
}

_DISTINCT_INFO = frozenset(
    f"information.{f}" for f in ("fisher_srs", "k_matrix", "fi_pros_complete", "fi_pros_marginal", "fi_unbalanced")
)
_FI_BY_METHOD = frozenset(f"information.{f}" for f in ("fi_pros_complete", "fi_pros_marginal", "fi_unbalanced"))

AGGREGATION_NOTE = (
    "calls inside a quadrature integrand (<integrand>) or a Monte Carlo batch (<mc batch>) are "
    "aggregated per request into the 'aggregates' table (calls, seconds, self seconds per function) "
    "and are not kept as spans; their time still counts as child time of the enclosing span"
)


def _freeze(x: tp.Any) -> tp.Hashable:
    """Hashable value-based key of a call argument, for distinct-argument counts."""
    if x is None or isinstance(x, (str, int, float, bool)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in x.items()))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_freeze(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray) or hasattr(x, "__array__"):
        a = np.asarray(x)
        return (a.shape, a.tobytes())
    if callable(x):
        return getattr(x, "__qualname__", repr(x))
    return repr(x)


class _Frame:
    __slots__ = ("id", "module", "name", "start", "parent", "child", "intervals", "aggregated", "request")

    def __init__(self, module: str, name: str, start: float, parent: "_Frame | None", aggregated: bool, request: int):
        self.id = 0
        self.module = module
        self.name = name
        self.start = start
        self.parent = parent
        self.child = 0.0
        self.intervals: list[tuple[float, float]] | None = None
        self.aggregated = aggregated
        self.request = request


class _ThreadState:
    __slots__ = ("stack", "depth", "counts", "self_s", "agg")

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.depth: collections.Counter = collections.Counter()
        self.counts: collections.defaultdict = collections.defaultdict(float)  # (request, counter)
        self.self_s: collections.defaultdict = collections.defaultdict(float)  # (request, module, name)
        self.agg: dict[tuple[int, str, str], list[float]] = {}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Recorder:
    """Wraps prosinfo's public callables and records spans, self times and counters."""

    def __init__(self) -> None:
        self.request = -1
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tl = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[tp.Any, str, tp.Any]] = []
        self.distinct: dict[str, set] = collections.defaultdict(set)
        self._numerics_error: type[Exception] = Exception

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("prosinfo")
        modules = {name: importlib.import_module(f"prosinfo.{name}") for name in MODULES}
        self._numerics_error = modules["numerics"].NumericsError
        wrapped: dict[int, tuple[tp.Any, tp.Any]] = {}
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(name, attr, obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._undo.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(name, f"{attr}.{meth}", fn))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, module: str, name: str, fn: tp.Callable) -> tp.Callable:
        full = f"{module}.{name}"
        groups = tuple(g for g, members in _GROUPS.items() if full in members)
        if module in _MODULE_GROUPS:
            groups += (module,)
        special = {
            "numerics.integrate_unit_interval": self._quadrature,
            "numerics.mc_mean_batches": self._monte_carlo,
            "numerics.mc_mean": self._monte_carlo,
        }.get(full)
        rec = self

        def wrapper(*args: tp.Any, **kwargs: tp.Any) -> tp.Any:
            return rec._call(module, name, full, fn, groups, special, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- per-call bookkeeping -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._tl, "state", None)
        if st is None:
            st = self._tl.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name: str, value: float = 1.0) -> None:
        self._state().counts[(self.request, name)] += value

    def _call(self, module, name, full, fn, groups, special, args, kwargs):
        st = self._state()
        stack = st.stack
        top = stack[-1] if stack else None
        if top is not None and top.module == module and not groups and special is None:
            return fn(*args, **kwargs)  # folded, nothing to count
        opened = []
        for g in groups:
            if st.depth[g] == 0:
                opened.append(g)
            st.depth[g] += 1
        req = self.request
        if full in _DISTINCT_INFO:
            self.distinct["information"].add((full, _freeze(args), _freeze(kwargs)))
            st.counts[(req, "information.distinct_calls")] += 1
        if full in _FI_BY_METHOD:
            st.counts[(req, f"information.fi_calls.{kwargs.get('method', 'quadrature')}")] += 1
        elif full == "information.verify_lemma_identity":
            st.counts[(req, "information.fi_calls.mc")] += 1
        if "models.fisher_unit" in opened:
            self.distinct["models.fisher_unit"].add(_freeze(args) + _freeze(kwargs))
        for g in opened:
            where = _POINTS_ARG.get(g)
            if where is not None:
                pos, kw, points = where
                st.counts[(req, f"{g}.points")] += points(kwargs[kw] if kw in kwargs else args[pos])
        frame = None
        t0 = time.perf_counter()
        if top is None or top.module != module:
            frame = _Frame(module, name, t0, top, top is not None and top.aggregated, req)
            stack.append(frame)
        result = None
        try:
            if special is not None:
                result = special(frame or top, args, kwargs, fn)
            else:
                result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            if frame is not None:
                stack.pop()
                self._close(st, frame, t1)
            for g in groups:
                st.depth[g] -= 1
            for g in opened:
                st.counts[(req, f"{g}.calls")] += 1
                st.counts[(req, f"{g}.s")] += t1 - t0
                if g == "sampling.csv" and isinstance(result, str):
                    st.counts[(req, "sampling.csv_bytes")] += len(result.encode())

    def _close(self, st: _ThreadState, f: _Frame, t1: float) -> None:
        dur = t1 - f.start
        covered = _covered(f.intervals, f.start, t1) if f.intervals is not None else f.child
        own = dur - covered
        st.self_s[(f.request, f.module, f.name)] += own
        parent = f.parent
        if parent is not None:
            if parent.intervals is not None:
                parent.intervals.append((f.start, t1))
            else:
                parent.child += dur
        if f.aggregated:
            row = st.agg.get((f.request, f.module, f.name))
            if row is None:
                st.agg[(f.request, f.module, f.name)] = [1, dur, own]
            else:
                row[0] += 1
                row[1] += dur
                row[2] += own
        else:
            f.id = next(self._ids)
            self.spans.append(
                (f.id, parent.id if parent is not None else 0, f.request, threading.get_ident(),
                 f.module, f.name, f.start, t1, own)
            )

    def _pseudo(self, module: str, name: str, parent: _Frame, fn: tp.Callable, args: tuple) -> tp.Any:
        """Run a callback the library received (an integrand or a batch) as an aggregated frame."""
        st = self._state()
        frame = _Frame(module, name, time.perf_counter(), parent, True, self.request)
        st.stack.append(frame)
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            self._close(st, frame, t1)

    def _caller_module(self) -> str:
        for f in reversed(self._state().stack):
            if f.module != "numerics":
                return f.module
        return "bench"

    def _quadrature(self, owner: _Frame, args, kwargs, fn):
        self.count("numerics.quad_calls")
        caller = self._caller_module()
        integrand = args[0]

        def traced(u):
            self.count("numerics.integrand_evals")
            return self._pseudo(caller, "<integrand>", owner, integrand, (u,))

        try:
            return fn(traced, *args[1:], **kwargs)
        except self._numerics_error:
            self.count("numerics.quad_failures")
            raise

    def _monte_carlo(self, owner: _Frame, args, kwargs, fn):
        reps = kwargs["reps"] if "reps" in kwargs else args[1]
        self.count("numerics.mc_calls")
        self.count("numerics.mc_replicates", reps)
        caller = self._caller_module()
        batch = args[0]
        owner.intervals = []

        def traced(*a):
            return self._pseudo(caller, "<mc batch>", owner, batch, a)

        return fn(traced, *args[1:], **kwargs)

    # -- requests and results -------------------------------------------------

    def begin_request(self, index: int) -> None:
        self.request = index
        st = self._state()
        st.stack.append(_Frame("bench", "request", time.perf_counter(), None, False, index))

    def end_request(self) -> None:
        st = self._state()
        while st.stack:
            frame = st.stack.pop()
            self._close(st, frame, time.perf_counter())
        self.request = -1

    def totals(self) -> dict[str, float]:
        """Counters summed over requests, plus self seconds per module and per function.

        Calls made between requests (the benchmark's checks) carry request id -1
        and are left out.
        """
        out: collections.defaultdict = collections.defaultdict(float)
        for st in list(self._states):
            for (req, name), v in st.counts.items():
                if req >= 0:
                    out[name] += v
            for (req, module, name), v in st.self_s.items():
                if req >= 0:
                    out[f"self.{module}"] += v
                    out[f"self.{module}.{name}"] += v
        return dict(out)

    def dump(self, path: str, meta: dict) -> None:
        aggregates = [
            [req, module, name, int(calls), total, own]
            for st in list(self._states)
            for (req, module, name), (calls, total, own) in sorted(st.agg.items())
        ]
        counters: collections.defaultdict = collections.defaultdict(float)
        for st in list(self._states):
            for (req, name), v in st.counts.items():
                counters[f"{req}:{name}"] += v
        doc = {
            **meta,
            "aggregation": AGGREGATION_NOTE,
            "span_fields": ["id", "parent", "request", "thread", "module", "name", "start_s", "end_s", "self_s"],
            "spans": self.spans,
            "aggregate_fields": ["request", "module", "name", "calls", "seconds", "self_s"],
            "aggregates": aggregates,
            "counters_by_request": dict(counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
