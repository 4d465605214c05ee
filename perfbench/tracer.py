"""Outside-in span tracer for the sfvs layers.

instrument() swaps every public function of each sfvs module for a
wrapper that records a span, everywhere the function is bound: its own
module, every module that imported it by name, the package namespace, and
module-level dicts of functions (verify_cli._BUILDERS holds the family
builders that way).  The LabeledGraph methods are wrapped on the class.
Nothing under src/ is edited, and the returned function puts every
original back.

Spans live in flat arrays in memory: name, parent span, instance id,
start and end.  A span's self time is its duration minus the durations of
its direct children.  Counts that need a return value (graph orders,
solver optimality, report rows) are taken by the wrapper as the call
returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter
from types import FunctionType

LAYERS = (
    "addressing",
    "generators",
    "graph_core",
    "pairable_forest",
    "triangle_forest",
    "exact_fvs",
    "verify_cli",
)
GRAPH_METHODS = (
    "vertices",
    "neighbors",
    "degree",
    "has_edge",
    "edges",
    "induced",
    "components",
    "__eq__",
)
# calls that return a newly built LabeledGraph; the outermost one on the
# stack hands its graph to the caller, the nested ones are intermediate
GRAPH_PRODUCERS = frozenset(
    {
        "generators.sierpinski",
        "generators.sierpinski_plus",
        "generators.sierpinski_plusplus",
        "generators.triangle",
        "generators.triangle_explicit",
        "graph_core.build_graph",
        "graph_core.contract_edges",
        "graph_core.relabel",
        "graph_core.import_edgelist",
    }
)

# (name, unit, better) of every per-layer metric, each per traced pass
PER_LAYER = (
    ("generators.triangle.self_s", "s", "lower"),
    ("generators.sierpinski.self_s", "s", "lower"),
    ("generators.nonclique_edges.self_s", "s", "lower"),
    ("generators.vertices_built", "count", "lower"),
    ("generators.self_s", "s", "lower"),
    ("graph_core.build_graph.calls", "count", "lower"),
    ("graph_core.build_graph.self_s", "s", "lower"),
    ("graph_core.contract_edges.self_s", "s", "lower"),
    ("graph_core.relabel.self_s", "s", "lower"),
    ("graph_core.build_useful_ratio", "ratio", "higher"),
    ("graph_core.find_cycle.self_s", "s", "lower"),
    ("graph_core.is_forest.self_s", "s", "lower"),
    ("graph_core.induced.self_s", "s", "lower"),
    ("graph_core.components.self_s", "s", "lower"),
    ("graph_core.self_s", "s", "lower"),
    ("addressing.format_word.calls", "count", "lower"),
    ("addressing.format_vertex.calls", "count", "lower"),
    ("addressing.self_s", "s", "lower"),
    ("pairable_forest.forest_sierpinski.self_s", "s", "lower"),
    ("pairable_forest.forest_plusplus.self_s", "s", "lower"),
    ("pairable_forest.self_s", "s", "lower"),
    ("triangle_forest.forest_triangle.self_s", "s", "lower"),
    ("triangle_forest.structure_report.self_s", "s", "lower"),
    ("triangle_forest.fvs_triangle3.self_s", "s", "lower"),
    ("triangle_forest.forest_triangle.calls", "count", "lower"),
    ("triangle_forest.construct_useful_ratio", "ratio", "higher"),
    ("triangle_forest.self_s", "s", "lower"),
    ("exact_fvs.search_ms_per_node", "ms/node", "lower"),
    ("exact_fvs.incumbent_s", "s", "lower"),
    ("exact_fvs.seed_minimalize_s", "s", "lower"),
    ("exact_fvs.verify_certificate.self_s", "s", "lower"),
    ("exact_fvs.tau_bruteforce.self_s", "s", "lower"),
    ("exact_fvs.optimal_ratio", "ratio", "higher"),
    ("exact_fvs.budget_exhausted", "count", "lower"),
    ("exact_fvs.self_s", "s", "lower"),
    ("verify_cli.run_suite.self_s", "s", "lower"),
    ("verify_cli.render.self_s", "s", "lower"),
    ("verify_cli.rows", "count", "higher"),
    ("verify_cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _p_n(args, kwargs):
    return (args[0] if args else kwargs["p"], args[1] if len(args) > 1 else kwargs["n"])


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.instance = -1  # set by the caller before each instance
        self.counts = Counter()
        self.forest_triangle_args = set()
        self._stack = [-1]
        self._producers_open = 0

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        producer = name in GRAPH_PRODUCERS
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1])
            self.span_instance.append(self.instance)
            self.span_end.append(0.0)
            stack.append(idx)
            outermost = producer and self._producers_open == 0
            self._producers_open += producer
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter()
                stack.pop()
                self._producers_open -= producer
            if producer:
                self._graph_built(name, result.order, outermost)
            elif name == "triangle_forest.forest_triangle":
                self.forest_triangle_args.add(_p_n(args, kwargs))
            elif name == "exact_fvs.tau_bnb":
                self.counts["tau_bnb.optimal"] += result.optimal
            elif name == "verify_cli.run_suite":
                self.counts["verify_cli.rows"] += len(result)
            return result

        return traced

    def _graph_built(self, name: str, order: int, outermost: bool):
        if name == "graph_core.build_graph":
            self.counts["build_graph.vertices"] += order
        if name.startswith("generators."):
            self.counts["generators.vertices_built"] += order
        if outermost:
            self.counts["graph.vertices_returned"] += order

    def self_times(self):
        """(self seconds, calls) per span name."""
        child = [0.0] * len(self.span_name)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        self_s, calls = Counter(), Counter()
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def write_spans(self, path: str):
        spans = zip(
            self.span_name, self.span_parent, self.span_instance, self.span_start, self.span_end
        )
        with open(path, "w", encoding="utf-8") as fh:
            fields = ["name", "parent", "instance", "start", "end"]
            json.dump({"names": self.names, "fields": fields}, fh)
            fh.write("\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def instrument(api, tracer: Tracer):
    """Route every call into the sfvs layers through tracer; returns the
    function that restores the originals."""
    modules = [importlib.import_module(f"{api.__name__}.{layer}") for layer in LAYERS]
    traced = {}
    for layer, mod in zip(LAYERS, modules):
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            # a generator function returns before its body runs, so a span
            # around the call would time nothing
            if (
                isinstance(fn, FunctionType)
                and fn.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(fn)
            ):
                traced[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    undo = []
    for mod in (api, *modules):
        namespace = vars(mod)
        holders = [namespace, *(v for v in namespace.values() if type(v) is dict)]
        for holder in holders:
            for key, value in list(holder.items()):
                if isinstance(value, FunctionType) and value in traced:
                    holder[key] = traced[value]
                    undo.append(functools.partial(holder.__setitem__, key, value))
    graph_cls = modules[LAYERS.index("graph_core")].LabeledGraph
    for method in GRAPH_METHODS:
        original = graph_cls.__dict__[method]
        setattr(graph_cls, method, tracer.wrap(f"graph_core.{method}", original))
        undo.append(functools.partial(setattr, graph_cls, method, original))

    def restore():
        for step in reversed(undo):
            step()

    return restore


def _ratio(useful, attempts) -> float:
    # no attempts means nothing was wasted
    return useful / attempts if attempts else 1.0


def layer_metrics(tracer: Tracer, passes: int, self_s, calls) -> dict:
    """Every PER_LAYER metric except the ones measured outside the trace
    (trace.overhead_s and the exact_fvs probes), per traced pass."""
    counts = tracer.counts

    def module_self(layer):
        return sum(t for name, t in self_s.items() if name.startswith(layer + "."))

    out = {f"{layer}.self_s": module_self(layer) / passes for layer in LAYERS}
    for name in (
        "generators.triangle",
        "generators.sierpinski",
        "generators.nonclique_edges",
        "graph_core.build_graph",
        "graph_core.contract_edges",
        "graph_core.relabel",
        "graph_core.find_cycle",
        "graph_core.is_forest",
        "graph_core.induced",
        "graph_core.components",
        "pairable_forest.forest_sierpinski",
        "pairable_forest.forest_plusplus",
        "triangle_forest.forest_triangle",
        "triangle_forest.structure_report",
        "triangle_forest.fvs_triangle3",
        "exact_fvs.verify_certificate",
        "exact_fvs.tau_bruteforce",
        "verify_cli.run_suite",
    ):
        out[f"{name}.self_s"] = self_s[name] / passes
    out["verify_cli.render.self_s"] = (
        self_s["verify_cli.render_json"] + self_s["verify_cli.render_table"]
    ) / passes
    for name in (
        "graph_core.build_graph",
        "addressing.format_word",
        "addressing.format_vertex",
        "triangle_forest.forest_triangle",
    ):
        out[f"{name}.calls"] = calls[name] / passes
    out["generators.vertices_built"] = counts["generators.vertices_built"] / passes
    out["graph_core.build_useful_ratio"] = _ratio(
        counts["graph.vertices_returned"], counts["build_graph.vertices"]
    )
    out["triangle_forest.construct_useful_ratio"] = _ratio(
        len(tracer.forest_triangle_args), calls["triangle_forest.forest_triangle"] / passes
    )
    solves = calls["exact_fvs.tau_bnb"]
    out["exact_fvs.optimal_ratio"] = _ratio(counts["tau_bnb.optimal"], solves)
    out["exact_fvs.budget_exhausted"] = (solves - counts["tau_bnb.optimal"]) / passes
    out["verify_cli.rows"] = counts["verify_cli.rows"] / passes
    out["trace.spans"] = len(tracer.span_name) / passes
    return out


def layer_shares(self_s, top: int = 8):
    """Self-time share of each layer and of the top span names."""
    total = sum(self_s.values()) or 1.0
    layers = Counter()
    for name, t in self_s.items():
        layers[name.split(".", 1)[0]] += t
    return (
        [(layer, t / total) for layer, t in layers.most_common()],
        [(name, t / total) for name, t in self_s.most_common(top)],
    )
