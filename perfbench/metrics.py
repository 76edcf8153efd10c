"""Metric declarations and the arithmetic the benchmark reports.

The two tables below are the benchmark's vocabulary: ``END_TO_END``
metrics are printed by an untraced run, ``PER_LAYER`` metrics by a
traced run.  ``BENCHMARK.json`` lists the same names, units and
directions (a test keeps the two in step).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "sim_instr_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "workloads.generate_s": ("s", "lower"),
    "trace.materialize_s": ("s", "lower"),
    "trace.instructions": ("count", "lower"),
    "compiler.compile_s": ("s", "lower"),
    "compiler.calls": ("count", "lower"),
    "profiler.critic_profile_s": ("s", "lower"),
    "cpu.simulate_s": ("s", "lower"),
    "cpu.simulate_calls": ("count", "lower"),
    "cpu.sim_instr_per_s": ("1/s", "higher"),
    "cpu.batch_s": ("s", "lower"),
    "cpu.batch_cells": ("count", "higher"),
    "cpu.batch_fallback_cells": ("count", "lower"),
    "cpu.batch_fast_ratio": ("ratio", "higher"),
    "cache.store_trace_s": ("s", "lower"),
    "cache.store_trace_bytes": ("bytes", "lower"),
    "cache.load_trace_s": ("s", "lower"),
    "cache.load_trace_bytes": ("bytes", "lower"),
    "cache.load_stats_s": ("s", "lower"),
    "cache.stats_lookups_per_cell": ("ratio", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "dispatch.tasks": ("count", "lower"),
    "dispatch.attempts": ("count", "lower"),
    "dispatch.retries": ("count", "lower"),
    "dispatch.busy_frac": ("ratio", "higher"),
    "experiments.figure_post_s": ("s", "lower"),
    "telemetry.manifest_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "tracing.overhead_frac": ("ratio", "lower"),
    "fidelity.shapes_passed": ("count", "higher"),
}

#: Which end-to-end metric each layer metric is expected to move, and
#: on which workloads (written down before any measurement, so a later
#: gain can be checked against the layer it claims).
LAYER_MOVES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "workloads.generate_s": ("wall_s", ("cold_sweep", "fig11_batch")),
    "trace.materialize_s": ("wall_s", ("cold_sweep",)),
    "trace.instructions": ("wall_s", ("cold_sweep",)),
    "compiler.compile_s": ("wall_s", ("cold_sweep",)),
    "compiler.calls": ("wall_s", ("cold_sweep",)),
    "profiler.critic_profile_s": ("wall_s", ("cold_sweep",)),
    "cpu.simulate_s": ("wall_s", ("cold_sweep",)),
    "cpu.simulate_calls": ("wall_s", ("cold_sweep",)),
    "cpu.sim_instr_per_s": ("sim_instr_per_s", ("cold_sweep",)),
    "cpu.batch_s": ("wall_s", ("fig11_batch",)),
    "cpu.batch_cells": ("wall_s", ("fig11_batch",)),
    "cpu.batch_fallback_cells": ("wall_s", ("fig11_batch",)),
    "cpu.batch_fast_ratio": ("wall_s", ("fig11_batch",)),
    "cache.store_trace_s": ("wall_s", ("cold_sweep",)),
    "cache.store_trace_bytes": ("wall_s", ("cold_sweep",)),
    "cache.load_trace_s": ("wall_s", ("warm_figures",)),
    "cache.load_trace_bytes": ("wall_s", ("warm_figures",)),
    "cache.load_stats_s": ("p99_ms", ("serve_warm",)),
    "cache.stats_lookups_per_cell": ("p99_ms", ("serve_warm",)),
    "cache.hit_ratio": ("p99_ms", ("serve_warm",)),
    "dispatch.tasks": ("wall_s", ("cold_sweep",)),
    "dispatch.attempts": ("wall_s", ("cold_sweep",)),
    "dispatch.retries": ("wall_s", ("cold_sweep",)),
    "dispatch.busy_frac": ("wall_s", ("cold_sweep",)),
    "experiments.figure_post_s": ("wall_s", ("warm_figures",)),
    "telemetry.manifest_s": ("wall_s", ("cold_sweep", "fig11_batch",
                                        "warm_figures", "serve_warm")),
    "unattributed_s": ("wall_s", ("cold_sweep", "fig11_batch",
                                  "warm_figures", "serve_warm")),
}

def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``0 < q <= 1``): the smallest value with
    at least ``q`` of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def busy_frac(task_seconds: Iterable[float], workers: int,
              drain_s: float) -> float:
    """Summed task time over the time ``workers`` were available."""
    if workers < 1 or drain_s <= 0:
        raise ValueError("busy_frac needs workers >= 1 and drain_s > 0")
    return sum(task_seconds) / (workers * drain_s)


def unattributed(wall_s: float, self_times: Mapping[str, float]) -> float:
    """Wall time that no layer's self time covers."""
    return wall_s - sum(self_times.values())


def render(values: Mapping[str, float],
           table: Mapping[str, Tuple[str, str]]) -> Dict[str, Dict]:
    """The ``metrics`` object of the result line: every metric of
    ``table``, by name, with its unit.  A missing value is an error,
    never a silent zero."""
    missing = [name for name in table if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in table.items()}
