"""Per-layer tracing from outside the library.

A layer is one module of ``decmin``.  The tracer wraps every binding of a
layer function: its home module, every module that imported it, the
package namespace, and the fast-path registry in ``core``.  It also wraps
the methods where work crosses a layer boundary: ``value`` and ``table``
on each oracle class (each subclass overrides them), ``MatroidOracle.rank``,
``Orientation.arcs`` and the ``Orientation.indeg`` property.  Wrapping only
some bindings would miss calls made through the others, so the counts
would be wrong.

Every wrapped call is a span (layer, name, start, end, parent, solve).  A
span's self time is its duration minus the time its child spans cover;
summed per layer it gives ``<layer>.self_s``.  Counts are taken at the same
boundaries.  Spans stay in memory (the first SPAN_LIMIT of them) and are
written out after the run.  Nothing is patched outside ``installed()``.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("core", "engine", "canonical", "netflow", "orientation", "applications", "matroid")
SPAN_LIMIT = 50_000

# A conversion helper that every layer's constructors call (Graph,
# Digraph, FlowProblem, Orientation); its time stays with the caller, so
# core shows no work on workloads that never reach core's primitives.
_UNTRACED = ("as_intvec",)
# methods wrapped on every layer class that defines them
_METHODS = ("value", "table", "rank", "arcs", "indeg")
# what a call means to the counters, by function or method name
_KINDS = {
    "value": "value",
    "table": "table",
    "smallest_tight_set": "tight",
    "exchange_feasible": "exchange",
    "max_flow": "flow",
    "min_cost_flow": "flow",
    "newton_dinkelbach": "nd",
}

# (name, unit) of every per-layer metric of a traced run, per solve, as
# BENCHMARK.json declares them
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    PER_LAYER = [(m["name"], m["unit"]) for m in json.load(_fh)["per_layer"]]

# per-layer metric -> wrapped call it counts
_CALL_METRICS = {
    "core.exchange_calls": "core.exchange_feasible",
    "core.membership_calls": "core.is_member",
    "engine.tightening_steps": "engine.one_tightening",
    "canonical.decompositions": "canonical.canonical_from_decmin",
    "canonical.value_fixed_calls": "canonical.value_fixed_set",
    "netflow.max_flow_calls": "netflow.max_flow",
    "netflow.feasible_flow_calls": "netflow.feasible_m_flow",
    "netflow.min_cost_flow_calls": "netflow.min_cost_flow",
    "orientation.arcs_rebuilds": "orientation.Orientation.arcs",
    "orientation.indeg_reads": "orientation.Orientation.indeg",
    "matroid.intersection_calls": "matroid.matroid_intersection",
    "matroid.rank_calls": "matroid.MatroidOracle.rank",
}


@dataclass
class Binding:
    """One place a layer callable is reachable from: ``owner.key`` for
    module and class attributes, ``owner[key]`` for registry entries."""

    owner: object
    key: str
    original: object  # what sits there now (a property for ``indeg``)
    layer: str
    name: str
    kind: str | None
    is_item: bool = False

    def current(self):
        return self.owner[self.key] if self.is_item else self.owner.__dict__[self.key]

    def put(self, value):
        if self.is_item:
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    if module.startswith("decmin."):
        layer = module.split(".", 1)[1]
        if layer in LAYERS:
            return layer
    return None


def discover() -> list:
    """Every binding of a layer function, registry entry and traced method
    in the loaded decmin modules."""
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "decmin" or name.startswith("decmin."))
    ]
    found = []
    classes = {}
    for mod in modules:
        for key, obj in list(vars(mod).items()):
            if key.startswith("__"):
                continue
            layer = _layer_of(obj)
            if isinstance(obj, types.FunctionType) and layer:
                if obj.__name__ in _UNTRACED:
                    continue
                # private helpers are wrapped only where another module binds them
                if not key.startswith("_") or obj.__module__ != mod.__name__:
                    found.append(Binding(mod, key, obj, layer, obj.__name__,
                                         _KINDS.get(obj.__name__)))
            elif isinstance(obj, type) and layer:
                classes[id(obj)] = obj
            elif isinstance(obj, dict):
                found.extend(_registry_bindings(obj))
    for cls in classes.values():
        layer = _layer_of(cls)
        for key in _METHODS:
            obj = cls.__dict__.get(key)
            fn = obj.fget if isinstance(obj, property) else obj
            if isinstance(fn, types.FunctionType):
                found.append(Binding(cls, key, obj, layer, f"{cls.__name__}.{key}",
                                     _KINDS.get(key)))
    return found


def _registry_bindings(table: dict) -> list:
    """Layer callables stored in a dict, directly or one dict deeper (the
    fast-path registry maps oracle kind -> operation -> routine)."""
    out = []
    for key, val in table.items():
        inner = val.items() if isinstance(val, dict) else ()
        for owner, k, fn in [(table, key, val)] + [(val, k2, v2) for k2, v2 in inner]:
            layer = _layer_of(fn)
            if isinstance(fn, types.FunctionType) and layer:
                kind = "fast_tight" if k == "tight_set" else _KINDS.get(fn.__name__)
                out.append(Binding(owner, k, fn, layer, fn.__name__, kind, is_item=True))
    return out


class Tracer:
    """Collects spans, call counts and per-layer self time while installed."""

    def __init__(self):
        self.calls = Counter()  # "layer.name" -> calls
        self.counts = Counter()  # value kinds, table builds, tight-set paths, arcs
        self.self_s = defaultdict(float)  # layer -> seconds
        self.fn_self_s = defaultdict(float)  # "layer.name" -> seconds
        self.spans = []  # (id, parent, solve, layer, name, start, end)
        self.dropped = 0
        self.solves = 0
        self._stack = []
        self._next_id = 0

    # -- patching -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        patched = []
        wrappers = {}
        try:
            for b in discover():
                raw = b.original
                fn = raw.fget if isinstance(raw, property) else raw
                key = (id(fn), b.kind, b.name)
                if key not in wrappers:
                    wrappers[key] = self._wrap(fn, b.layer, b.name, b.kind)
                b.put(property(wrappers[key]) if isinstance(raw, property) else wrappers[key])
                patched.append(b)
            yield self
        finally:
            for b in reversed(patched):
                b.put(b.original)

    def _wrap(self, fn, layer, name, kind):
        call = self._call

        def traced(*args, **kwargs):
            return call(fn, layer, name, kind, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- spans ----------------------------------------------------------

    def run_solve(self, job):
        """Solve one job inside a root span that numbers the solve."""
        self.solves += 1
        return self._call(job.solve, "bench", job.family, None, (), {})

    def _call(self, fn, layer, name, kind, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if kind == "value":
            self.counts["core.value_calls." + str(getattr(args[0], "kind", "?"))] += 1
            if parent is not None and parent[2] == "table":
                parent[5].add("evaluated")
        elif kind == "flow":
            problem = args[0]
            digraph = getattr(problem, "digraph", problem)
            self.counts["netflow.arcs"] += len(digraph.arcs)
            self.counts["netflow.solves"] += 1
        self._next_id += 1
        frame = [layer, name, kind, perf_counter(), 0.0, set(), self._next_id]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, parent, None, ok=False)
            raise
        self._close(frame, parent, result, ok=True)
        return result

    def _close(self, frame, parent, result, ok):
        end = perf_counter()
        self._stack.pop()
        layer, name, kind, start, child, flags, span_id = frame
        dur = end - start
        self.self_s[layer] += dur - child
        self.fn_self_s[f"{layer}.{name}"] += dur - child
        self.calls[f"{layer}.{name}"] += 1
        if parent is not None:
            parent[4] += dur
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(
                (span_id, parent[6] if parent else 0, self.solves, layer, name, start, end)
            )
        else:
            self.dropped += 1
        if not ok:
            return
        tight_parent = parent is not None and parent[2] == "tight"
        if kind == "table":
            if "evaluated" in flags:
                self.counts["core.table_builds"] += 1
            if tight_parent:
                parent[5].add("table")
        elif kind == "exchange" and tight_parent:
            parent[5].add("exchange")
        elif kind == "fast_tight" and tight_parent:
            parent[5].add("fast")
        elif kind == "tight":
            # the registered fast path wins; the exchange fallback runs after
            # a table read failed at the ceiling; a box shortcut is neither
            for path in ("fast", "exchange", "table"):
                if path in flags:
                    self.counts["core.tight_set_calls." + path] += 1
                    break
        elif kind == "nd":
            self.counts["engine.nd_iterations"] += result.iterations

    # -- results --------------------------------------------------------

    def totals(self) -> dict:
        """Raw counter totals over every traced solve (no self times)."""
        out = {}
        for metric, _ in PER_LAYER:
            if metric.endswith("_s") or metric == "netflow.arcs_per_call":
                continue
            out[metric] = self._count(metric)
        return out

    def _count(self, metric: str) -> int:
        if metric in _CALL_METRICS:
            return self.calls[_CALL_METRICS[metric]]
        if metric == "core.tight_set_calls":
            return self.calls["core.smallest_tight_set"]
        return self.counts[metric]

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, per traced solve."""
        per = 1.0 / max(self.solves, 1)
        out = {}
        for metric, unit in PER_LAYER:
            if metric == "trace.overhead_s":
                value = overhead_s
            elif metric == "netflow.arcs_per_call":
                value = self.counts["netflow.arcs"] / max(self.counts["netflow.solves"], 1)
            elif metric in ("netflow.max_flow_s", "netflow.min_cost_flow_s"):
                value = self.fn_self_s["netflow." + metric[len("netflow."):-2]] * per
            elif metric.endswith(".self_s"):
                value = self.self_s[metric[: -len(".self_s")]] * per
            else:
                value = self._count(metric) * per
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, parent, solve, layer, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "solve": solve,
                                     "layer": layer, "name": name,
                                     "start": start, "end": end}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")
