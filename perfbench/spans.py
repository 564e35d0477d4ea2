"""Spans at fedhire's module boundaries, recorded from outside the program.

A traced operation swaps each layer function listed in LAYERS for a wrapper
that records a span (name, start, end, parent, operation id) and a few counts
read off the call's arguments and result, then restores the originals. The
wrappers replace the names that the calling module looks up, so every call
the pipeline makes goes through them. Spans stay in memory until
``Tracer.dump``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

ROOT = "run_one_shot"

# span name -> (module, attribute that the caller looks up)
LAYERS = {
    "federation.fragment_partition": ("fedhire.federation", "fragment_partition"),
    "client.run_fcpl": ("fedhire.federation", "run_fcpl"),
    "server.stack_payloads": ("fedhire.federation", "stack_payloads"),
    "server.run_mcpl": ("fedhire.federation", "run_mcpl"),
    "server.encode_hierarchy": ("fedhire.federation", "encode_hierarchy"),
    "server.final_clustering": ("fedhire.federation", "final_clustering"),
    "server.propagate_labels": ("fedhire.federation", "propagate_labels"),
    "cpl.client": ("fedhire.client", "run_cpl"),
    "cpl.server": ("fedhire.server", "run_cpl"),
    "core.feature_weights": ("fedhire.cpl", "feature_cluster_matrix_client"),
}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _observe(name: str, args: tuple, result, attrs: dict) -> None:
    """Counts a layer call exposes through its arguments and result."""
    if name.startswith("cpl."):
        attrs["objects"] = args[0].object_count
        attrs["epochs"] = result.epochs_used
        attrs["converged"] = bool(result.converged)
    elif name == "client.run_fcpl":
        attrs["clusterlets"] = 0 if result is None else result[1].clusterlet_count
    elif name == "server.stack_payloads":
        # kept for the raw-row check; not written out
        attrs["payload_rows"] = np.vstack([p.centroids for p in args[0]])
    elif name == "server.run_mcpl":
        attrs["depth"] = result.depth
    elif name == "server.final_clustering":
        attrs["iterations"] = result.iterations_used


class Tracer:
    """Collects the spans of traced operations in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, self._op, parent)
        self.spans.append(span)
        return span

    def _wrap(self, name: str, fn, track_memory: bool):
        tracks_memory = track_memory and name.startswith("cpl.")

        def layer(*args, **kwargs):
            span = self._open(name)
            if tracks_memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if tracks_memory:
                span.attrs["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1] - base
            _observe(name, args, result, span.attrs)
            return result

        return layer

    @contextlib.contextmanager
    def operation(self, op: int, track_memory: bool = False):
        """Trace one pipeline call: the wrappers are on inside the block and
        a root span covers it. With ``track_memory``, tracemalloc runs too and
        each cpl span records its allocation peak; that slows the presentation
        loop several times over, so such spans are not used for timing."""
        self._op = op
        originals = []
        for name, (module_name, attr) in LAYERS.items():
            module = importlib.import_module(module_name)
            originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap(name, getattr(module, attr), track_memory))
        if track_memory:
            tracemalloc.start()
        root = self._open(ROOT)
        root.start = time.perf_counter()
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            if track_memory:
                tracemalloc.stop()
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        return [s.seconds - c for s, c in zip(self.spans, child_time)]

    def dump(self, path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        rows = [
            {
                "name": s.name,
                "op": s.op,
                "parent": s.parent,
                "start": s.start - origin,
                "end": s.end - origin,
                "self": own,
                **{k: v for k, v in s.attrs.items() if not isinstance(v, np.ndarray)},
            }
            for s, own in zip(self.spans, self.self_seconds())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}, indent=1))


def layer_metrics(tracer: Tracer, op: int) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    self_seconds = tracer.self_seconds()
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s.op == op]
    by_name: dict[str, list[tuple[int, Span]]] = {}
    for index, span in spans:
        by_name.setdefault(span.name, []).append((index, span))

    def total(name):
        return sum(s.seconds for _, s in by_name.get(name, []))

    def attr(name, key):
        return [s.attrs[key] for _, s in by_name.get(name, [])]

    (root_index, root), = by_name[ROOT]
    top_level = sum(s.seconds for _, s in spans if s.parent == root_index)
    fcpl = [s.seconds for _, s in by_name.get("client.run_fcpl", [])]
    out = {
        "federation.fragment_partition_s": total("federation.fragment_partition"),
        "client.run_fcpl_s": sum(fcpl),
        "client.run_fcpl_max_s": max(fcpl),
        "client.clusterlets": sum(attr("client.run_fcpl", "clusterlets")),
        "core.feature_weights_s": total("core.feature_weights"),
        "core.feature_weights_calls": len(by_name.get("core.feature_weights", [])),
        "server.run_mcpl_s": total("server.run_mcpl"),
        "server.stages": len(by_name.get("cpl.server", [])),
        "server.hierarchy_depth": attr("server.run_mcpl", "depth")[0],
        "server.stack_payloads_s": total("server.stack_payloads"),
        "server.encode_hierarchy_s": total("server.encode_hierarchy"),
        "server.final_clustering_s": total("server.final_clustering"),
        "server.final_iterations": attr("server.final_clustering", "iterations")[0],
        "server.propagate_labels_s": total("server.propagate_labels"),
        "trace.run_one_shot_self_s": self_seconds[root_index],
        "trace.coverage": top_level / root.seconds,
    }
    for side in ("client", "server"):
        calls = by_name.get(f"cpl.{side}", [])
        seconds = sum(s.seconds for _, s in calls)
        presentations = sum(s.attrs["epochs"] * s.attrs["objects"] for _, s in calls)
        out.update(
            {
                f"cpl.{side}.run_cpl_s": seconds,
                f"cpl.{side}.run_cpl_self_s": sum(self_seconds[i] for i, _ in calls),
                f"cpl.{side}.epochs": sum(s.attrs["epochs"] for _, s in calls),
                f"cpl.{side}.presentations": presentations,
                f"cpl.{side}.presentations_per_s": presentations / seconds,
                f"cpl.{side}.unconverged": sum(not s.attrs["converged"] for _, s in calls),
            }
        )
        if "peak_alloc_bytes" in calls[0][1].attrs:
            out[f"cpl.{side}.peak_alloc_mb"] = max(
                s.attrs["peak_alloc_bytes"] for _, s in calls) / 2**20
    return out
