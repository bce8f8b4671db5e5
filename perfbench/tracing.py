"""Spans around qiso's public functions, installed from outside the package.

:meth:`Tracer.install` replaces every public function of each qiso module,
and the constructors of its main classes, with a wrapper that records a
span: name, parent span, start and end. The replacement is made in every
``qiso`` namespace that holds the function, because modules import each
other's functions directly (``cli`` imports ``center``, ``quasi`` imports
``bfs_distances``). :meth:`Tracer.uninstall` puts the originals back.

Spans stay in memory as flat arrays and are reduced when the run ends: a
span's self time is its duration minus the durations of its child spans.
A few hooks count work at the same boundaries (BFS sources, matrix sizes,
bytes written).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("graph", "quasi", "partition", "mis", "contraction", "weighted", "fileio", "cli",
           "generators")
CLASSES = {  # module -> (class, method whose span stands for building one)
    "graph": ("Graph", "__init__"),
    "partition": ("Partition", "__init__"),
    "quasi": ("VertexMapping", "__init__"),
    "weighted": ("WeightedGraph", "__post_init__"),
}

# Per-layer time metrics: the summed self time of these spans.
SELF_TIME = {
    "graph.sweep_s": ("graph.eccentricity_profile", "graph.center", "graph.median",
                      "graph.distance_sum", "graph.bfs_distances"),
    "graph.build_s": ("graph.Graph",),
    "quasi.distance_matrix_s": ("quasi.distance_matrix",),
    "quasi.verify_q1_s": ("quasi.verify_q1",),
    "quasi.ecc_transfer_s": ("quasi.verify_ecc_transfer",),
    "quasi.minimal_constants_s": ("quasi.minimal_constants", "quasi.minimal_additive_for_stretch"),
    "quasi.center_shift_s": ("quasi.center_shift",),
    "partition.collapse_s": ("partition.collapse_basic", "partition.collapse_modified"),
    "partition.quotient_s": ("partition.Partition", "partition.build_partition_graph"),
    "partition.sharpness_s": ("partition.sharpness_report", "partition.induced_diameter"),
    "mis.derive_s": ("mis.greedy_mis", "mis.mis_derived"),
    "mis.verify_bounds_s": ("mis.verify_mis_bounds", "mis.check_independent",
                            "mis.check_maximal_independent"),
    "contraction.outward_s": ("contraction.outward_contraction", "contraction.root_tree"),
    "weighted.median_s": ("weighted.weighted_median", "weighted.weighted_distance_sum"),
    "cli.self_s": ("cli.main",),
}
CALL_COUNTS = {
    "graph.bfs_calls": "graph.bfs_distances",
    "quasi.distance_matrix_calls": "quasi.distance_matrix",
    "contraction.outward_calls": "contraction.outward_contraction",
    "cli.commands": "cli.main",
}
ERROR_MODULES = ("graph", "quasi", "partition", "mis", "contraction", "weighted", "fileio", "cli")


class Tracer:
    """Records spans while installed; reduces them to per-layer metrics."""

    def __init__(self, qiso_error: type[BaseException]):
        self._qiso_error = qiso_error
        self._patched: list[tuple[object, str, object]] = []
        self._span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (the installed wrappers stay)."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.errors: Counter[str] = Counter()
        # Distinct (graph, source) BFS pairs and distinct matrix graphs are
        # counted within one command; graphs are held until the command ends
        # so that their ids cannot be reused.
        self._held: dict[int, object] = {}
        self._bfs_pairs: set[tuple[int, int]] = set()
        self._matrix_graphs: set[int] = set()
        self.bfs_unique = 0
        self.matrix_unique = 0
        self.matrix_bytes_max = 0
        self.mis_edges = [0, 0]  # derived, source
        self.bytes_written = 0

    # --- installing -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap qiso's public functions everywhere they are bound; return span names."""
        namespaces = [m for k, m in list(sys.modules.items()) if k == "qiso" or k.startswith("qiso.")]
        hooks = self._hooks()
        for short in MODULES:
            mod = sys.modules[f"qiso.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                span = f"{short}.{attr}"
                wrapped = self._wrap(obj, span, hooks.get(span))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, wrapped)
            if short in CLASSES:
                cls_name, method = CLASSES[short]
                cls = getattr(mod, cls_name)
                self._patch(cls, method, self._wrap(vars(cls)[method], f"{short}.{cls_name}", None))
        return list(self._span_names)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner: object, key: str, value: object) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, fn, span: str, hook):
        if span not in self._name_ids:
            self._name_ids[span] = len(self._span_names)
            self._span_names.append(span)
        nid = self._name_ids[span]
        module = span.split(".")[0]
        clock = time.perf_counter
        qiso_error = self._qiso_error
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except qiso_error:
                tracer._leaving(idx, module)
                raise
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _leaving(self, idx: int, module: str) -> None:
        """Count a QisoError that leaves ``module`` (its caller is elsewhere)."""
        p = self.parent[idx]
        if p < 0 or self._span_names[self.name[p]].split(".")[0] != module:
            self.errors[module] += 1

    # --- counting hooks ---------------------------------------------------

    def _hooks(self) -> dict:
        def bfs(args, kwargs, result):
            g = args[0]
            self._held[id(g)] = g
            self._bfs_pairs.add((id(g), args[1] if len(args) > 1 else kwargs["source"]))

        def matrix(args, kwargs, result):
            g = args[0]
            self._held[id(g)] = g
            self._matrix_graphs.add(id(g))
            self.matrix_bytes_max = max(self.matrix_bytes_max, result.nbytes)

        def mis_derived(args, kwargs, result):
            self.mis_edges[0] += result.derived.edge_count
            self.mis_edges[1] += args[0].edge_count

        def written(args, kwargs, result):
            self.bytes_written += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

        def command(args, kwargs, result):
            self.bfs_unique += len(self._bfs_pairs)
            self.matrix_unique += len(self._matrix_graphs)
            self._bfs_pairs.clear()
            self._matrix_graphs.clear()
            self._held.clear()

        hooks = {
            "graph.bfs_distances": bfs,
            "quasi.distance_matrix": matrix,
            "mis.mis_derived": mis_derived,
            "cli.main": command,
        }
        for writer in ("write_edge_list", "write_partition", "write_weights", "write_mapping",
                       "write_report"):
            hooks[f"fileio.{writer}"] = written
        return hooks

    # --- reducing ---------------------------------------------------------

    def _per_span(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, summed self time, summed top-level time.

        Top-level time sums only spans whose parent lies in another module,
        so a module's recursive or nested calls are not counted twice.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter[str] = Counter()
        self_time: defaultdict[str, float] = defaultdict(float)
        outer_time: defaultdict[str, float] = defaultdict(float)
        modules = [s.split(".")[0] for s in self._span_names]
        for i in range(n):
            span = self._span_names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[span] += 1
            self_time[span] += dur - child[i]
            p = self.parent[i]
            if p < 0 or modules[self.name[p]] != modules[self.name[i]]:
                outer_time[span] += dur
        return calls, self_time, outer_time

    def module_time(self, module: str) -> float:
        """Wall time spent inside ``module``'s spans entered from outside it."""
        _, _, outer = self._per_span()
        return sum(t for span, t in outer.items() if span.startswith(module + "."))

    def layer_metrics(self) -> tuple[dict, list[str]]:
        """Per-layer metrics as ``{name: (value, unit)}`` and the span names never installed."""
        calls, self_time, _ = self._per_span()
        known = set(self._span_names)
        missing = sorted(
            span for spans in SELF_TIME.values() for span in spans if span not in known
        ) + sorted(span for span in CALL_COUNTS.values() if span not in known)
        out: dict[str, tuple[float, str]] = {}
        for metric, spans in SELF_TIME.items():
            out[metric] = (sum(self_time[s] for s in spans), "s")
        read = sum(t for s, t in self_time.items() if s.startswith("fileio.read_"))
        out["fileio.read_s"] = (read, "s")
        out["fileio.write_s"] = (
            sum(t for s, t in self_time.items() if s.startswith("fileio.")) - read, "s")
        for metric, span in CALL_COUNTS.items():
            out[metric] = (calls[span], "count")
        bfs = calls["graph.bfs_distances"]
        out["graph.bfs_unique_ratio"] = (self.bfs_unique / bfs if bfs else 0.0, "1")
        dm = calls["quasi.distance_matrix"]
        out["quasi.distance_matrix_unique_ratio"] = (self.matrix_unique / dm if dm else 0.0, "1")
        out["quasi.matrix_bytes_max"] = (self.matrix_bytes_max, "bytes-computed")
        derived, source = self.mis_edges
        out["mis.derived_edge_ratio"] = (derived / source if source else 0.0, "1")
        out["fileio.bytes_written"] = (self.bytes_written, "bytes")
        for module in ERROR_MODULES:
            out[f"{module}.errors"] = (self.errors[module], "count")
        return out, missing
