"""Span recording around the program's layer functions.

The traced run replaces each layer entry point named in ``LAYERS`` with
a wrapper that records a span (name, start, end, parent) and a few
counts.  Spans stay in memory and are written out once, at exit.  A
layer's self time is its span durations minus the time its child spans
cover; whatever wall time no span covers is reported as
``unattributed_s``.

The wrappers live here, outside the program: the traced run measures
the program as shipped, from its public call boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.metrics import unattributed


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: index of the enclosing span in the same thread, or -1
    parent: int = -1
    counts: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call; ``count(span,
        result, args, kwargs)`` may add counts after the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name=name, start=time.perf_counter(),
                        parent=stack[-1] if stack else -1)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(span, result, args, kwargs)
            return result

        return wrapper

    def install(self, target: str, attr: str, name: str,
                count: Optional[Callable] = None) -> None:
        """Replace ``attr`` of ``target`` (``"pkg.mod"`` or
        ``"pkg.mod:Class"``) with a recording wrapper."""
        module_name, _, class_name = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr] if class_name \
            else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def load_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [Span(**record) for record in json.load(handle)]


def window(spans: List[Span], start: float, end: float) -> List[Span]:
    """The spans inside ``[start, end]`` (``perf_counter`` is
    system-wide, so spans from another process compare), re-parented
    within the kept list."""
    kept = [i for i, s in enumerate(spans) if start <= s.start
            and s.end <= end]
    remap = {old: new for new, old in enumerate(kept)}
    out = []
    for old in kept:
        span = spans[old]
        span.parent = remap.get(span.parent, -1)
        out.append(span)
    return out


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: Dict[str, float] = {}
    for span, covered in zip(spans, child_time):
        totals[span.name] = totals.get(span.name, 0.0) \
            + (span.end - span.start) - covered
    return totals


def totals(spans: List[Span], name: str) -> Tuple[int, float,
                                                  Dict[str, float]]:
    """Calls, inclusive seconds and summed counts of ``name`` spans."""
    calls, seconds, counts = 0, 0.0, {}
    for span in spans:
        if span.name != name:
            continue
        calls += 1
        seconds += span.end - span.start
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
    return calls, seconds, counts


# -- the layers ----------------------------------------------------------------


def _count_instructions(span, result, args, kwargs) -> None:
    span.counts["instructions"] = getattr(result, "instructions", 0)


def _count_trace(span, result, args, kwargs) -> None:
    span.counts["instructions"] = len(result)


def _count_batch(span, result, args, kwargs) -> None:
    from repro.cpu.batch import last_batch_report

    report = last_batch_report() or {}
    span.counts["cells"] = len(result)
    span.counts["fallback"] = len(report.get("fallbacks", ()))
    span.counts["instructions"] = sum(s.instructions for s in result)


def _count_artifact(span, result, args, kwargs) -> None:
    cache, key = args[0], args[1]
    try:
        span.counts["bytes"] = os.path.getsize(cache.path_for("trace", key))
    except OSError:
        span.counts["bytes"] = 0


def _count_lookup(span, result, args, kwargs) -> None:
    span.counts["hits"] = 0 if result is None else 1


_FIGURES = ("fig03", "fig08", "fig10", "fig11", "fig12", "fig13")

#: layer span name -> [(target, attribute, count)].  Functions that a
#: module imported by name are patched in every importing module.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "workloads.generate": [
        ("repro.experiments.runner", "build_workload", None)],
    "trace.materialize": [
        ("repro.workloads.generator:Workload", "trace", _count_trace),
        ("repro.workloads.generator:Workload", "trace_for", _count_trace)],
    "compiler.compile": [
        ("repro.compiler.passes.base:PassManager", "run", None)],
    "profiler.critic_profile": [
        ("repro.experiments.runner", "find_critic_profile", None),
        ("repro.experiments.fig12", "find_critic_profile", None)],
    "cpu.simulate": [
        ("repro.experiments.runner", "simulate", _count_instructions),
        ("repro.experiments.fig12", "simulate", _count_instructions)],
    "cpu.batch": [
        ("repro.cpu.batch", "simulate_batch", _count_batch)],
    "cache.store_trace": [
        ("repro.cache:ArtifactCache", "store_trace", _count_artifact)],
    "cache.load_trace": [
        ("repro.cache:ArtifactCache", "load_trace", _count_artifact)],
    "cache.load_stats": [
        ("repro.cache:ArtifactCache", "load_stats", _count_lookup)],
    "experiments.sweep": [
        ("repro.experiments.sweep", "run_sweep", None)]
    + [(f"repro.experiments.{fig}", "run_sweep", None) for fig in _FIGURES],
    "experiments.figure": [
        (f"repro.experiments.{fig}", "run", None)
        for fig in _FIGURES if fig != "fig12"]
    + [("repro.experiments.fig12", "run_length_sensitivity", None),
       ("repro.experiments.fig12", "run_profile_sensitivity", None)],
    "telemetry.manifest": [
        ("repro.telemetry.manifest", "record_run", None),
        ("repro.experiments.runner", "record_run", None),
        ("repro.experiments.sweep", "record_run", None)],
}


#: Spans that only delimit other layers: their self time is plumbing
#: (probe, executor, telemetry merge) and counts as unattributed.
CONTAINERS = ("experiments.sweep",)


def install_layers(tracer: Tracer) -> None:
    for name, targets in LAYERS.items():
        for target, attr, count in targets:
            tracer.install(target, attr, name, count)


def layer_metrics(spans: List[Span], wall_s: float,
                  cells: int) -> Dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``cells`` is the number of app x scheme x config cells the pass
    resolved (the base of ``cache.stats_lookups_per_cell``).
    """
    selfs = self_times(spans)
    out: Dict[str, float] = {}

    def self_s(name: str) -> float:
        return selfs.get(name, 0.0)

    out["workloads.generate_s"] = self_s("workloads.generate")
    out["trace.materialize_s"] = self_s("trace.materialize")
    # A trace_for() of the unmodified program calls trace(): count the
    # instructions of the outermost materialize span only.
    out["trace.instructions"] = sum(
        span.counts.get("instructions", 0) for span in spans
        if span.name == "trace.materialize"
        and (span.parent < 0
             or spans[span.parent].name != "trace.materialize"))
    out["compiler.compile_s"] = self_s("compiler.compile")
    out["compiler.calls"] = totals(spans, "compiler.compile")[0]
    out["profiler.critic_profile_s"] = self_s("profiler.critic_profile")
    calls, sim_s, counts = totals(spans, "cpu.simulate")
    out["cpu.simulate_s"] = self_s("cpu.simulate")
    out["cpu.simulate_calls"] = calls
    out["cpu.sim_instr_per_s"] = \
        counts.get("instructions", 0) / sim_s if sim_s else 0.0
    _calls, _batch_s, counts = totals(spans, "cpu.batch")
    out["cpu.batch_s"] = self_s("cpu.batch")
    out["cpu.batch_cells"] = counts.get("cells", 0)
    out["cpu.batch_fallback_cells"] = counts.get("fallback", 0)
    out["cpu.batch_fast_ratio"] = \
        1 - counts["fallback"] / counts["cells"] if counts.get("cells") \
        else 0.0
    out["cache.store_trace_s"] = self_s("cache.store_trace")
    out["cache.store_trace_bytes"] = \
        totals(spans, "cache.store_trace")[2].get("bytes", 0)
    out["cache.load_trace_s"] = self_s("cache.load_trace")
    out["cache.load_trace_bytes"] = \
        totals(spans, "cache.load_trace")[2].get("bytes", 0)
    lookups, _s, counts = totals(spans, "cache.load_stats")
    out["cache.load_stats_s"] = self_s("cache.load_stats")
    out["cache.stats_lookups_per_cell"] = lookups / cells if cells else 0.0
    out["cache.hit_ratio"] = counts.get("hits", 0) / lookups \
        if lookups else 0.0
    out["experiments.figure_post_s"] = self_s("experiments.figure")
    out["telemetry.manifest_s"] = self_s("telemetry.manifest")
    out["unattributed_s"] = unattributed(
        wall_s, {k: v for k, v in selfs.items() if k not in CONTAINERS})
    return out
