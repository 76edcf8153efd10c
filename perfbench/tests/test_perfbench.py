"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os
import re
import sys
from types import SimpleNamespace as NS

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import fidelity, gate, metrics, tracing  # noqa: E402
from perfbench.run import LISTED, NAMES, end_to_end  # noqa: E402

#: Names and units as BENCHMARK.json allows them.
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- metric naming --------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    for table in (metrics.END_TO_END, metrics.PER_LAYER):
        for name, (unit, better) in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
            assert better in ("higher", "lower")
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER)
    assert metrics.END_TO_END["setup_s"] == ("s", "lower")


def test_benchmark_json_lists_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(LISTED)
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["per_layer"]} == metrics.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_layer_moves_name_real_metrics_and_workloads():
    for layer, (target, workloads) in metrics.LAYER_MOVES.items():
        assert layer in metrics.PER_LAYER
        assert target in metrics.END_TO_END
        assert set(workloads) <= set(NAMES)


def test_render_refuses_a_missing_metric():
    table = {"a_s": ("s", "lower"), "b": ("count", "higher")}
    assert metrics.render({"a_s": 1.5, "b": 2}, table) == {
        "a_s": {"value": 1.5, "unit": "s"},
        "b": {"value": 2, "unit": "count"}}
    with pytest.raises(KeyError, match="b"):
        metrics.render({"a_s": 1.5}, table)


def test_end_to_end_averages_over_passes():
    passes = [{"seconds": s, "latencies": [s / 1000] * 990 + [s / 100] * 10,
               "instructions": 1000}
              for s in (2.0, 4.0, 6.0)]
    values = end_to_end([0.5, 0.7, 0.6], {"passes": passes,
                                          "peak_rss_mb": 100.0})
    assert values["setup_s"] == 0.6  # the median set-up
    assert values["wall_s"] == pytest.approx(4.0)
    assert values["ops_per_s"] == pytest.approx(3000 / 12.0)
    assert values["p50_ms"] == pytest.approx(4.0)
    assert values["p99_ms"] == pytest.approx(4.0)  # 10 samples beyond
    assert values["sim_instr_per_s"] == pytest.approx(3000 / 12.0)
    assert set(values) == set(metrics.END_TO_END)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert metrics.percentile(values, 0.99) == 990
    assert metrics.percentile(values, 0.5) == 500
    assert metrics.percentile([7.0], 0.99) == 7.0
    assert metrics.median([3, 1, 2, 10]) == 2.5


# -- busy fraction and attribution ---------------------------------------------


def test_busy_frac_is_task_time_over_worker_time():
    # 3 tasks of 2 s on 2 workers draining in 4 s: 6 of 8 worker-seconds.
    assert metrics.busy_frac([2.0, 2.0, 2.0], 2, 4.0) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        metrics.busy_frac([1.0], 0, 1.0)


def _span(name, start, end, parent=-1, **counts):
    return tracing.Span(name=name, start=start, end=end, parent=parent,
                        counts=counts)


def test_self_time_subtracts_children():
    spans = [
        _span("experiments.sweep", 0.0, 10.0),
        _span("cpu.simulate", 1.0, 4.0, parent=0, instructions=300),
        _span("cache.store_trace", 2.0, 3.0, parent=1, bytes=10),
        _span("cpu.simulate", 5.0, 6.0, parent=0, instructions=100),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"experiments.sweep": 6.0,
                                   "cpu.simulate": 3.0,
                                   "cache.store_trace": 1.0})
    layers = tracing.layer_metrics(spans, wall_s=10.5, cells=4)
    # The sweep span only delimits layers: its self time (6 s) and the
    # 0.5 s outside every span are unattributed.
    assert layers["unattributed_s"] == pytest.approx(6.5)
    assert layers["cpu.simulate_s"] == pytest.approx(3.0)
    assert layers["cpu.simulate_calls"] == 2
    assert layers["cpu.sim_instr_per_s"] == pytest.approx(400 / 4.0)
    assert layers["cache.store_trace_bytes"] == 10
    assert metrics.unattributed(10.0, {"a": 2.0, "b": 3.0}) == 5.0


def test_window_keeps_inner_spans_and_reparents():
    spans = [_span("a", 0.0, 1.0), _span("b", 2.0, 5.0),
             _span("c", 3.0, 4.0, parent=1)]
    kept = tracing.window(spans, 1.5, 6.0)
    assert [s.name for s in kept] == ["b", "c"]
    assert [s.parent for s in kept] == [-1, 0]


def test_tracer_records_nesting_and_restores():
    class Target:
        def outer(self):
            return self.inner()

        def inner(self):
            return 3

    tracer = tracing.Tracer()
    module = NS(Target=Target)
    sys.modules["_perfbench_target"] = module
    try:
        tracer.install("_perfbench_target:Target", "outer", "outer")
        tracer.install("_perfbench_target:Target", "inner", "inner")
        assert Target().outer() == 3
    finally:
        tracer.uninstall()
        del sys.modules["_perfbench_target"]
    assert [(s.name, s.parent) for s in tracer.spans] == \
        [("outer", -1), ("inner", 0)]
    assert Target.outer.__qualname__.endswith("Target.outer")
    assert not hasattr(Target.outer, "__wrapped__")


# -- fidelity scoreboard ---------------------------------------------------------


def _figures(fetch_mobile=0.4, a1=3.0, a2=9.0, hoist=2.5, critic=12.6,
             lengths=(1.0, 2.0, 3.0, 5.0, 4.0, 2.0),
             coverage=(4.0, 10.0, 13.0, 15.0), opp=(6.0, 8.0, 12.0, 16.0)):
    fig03 = [NS(group="spec_int", stage_fractions={"fetch": 0.04}),
             NS(group="spec_float", stage_fractions={"fetch": 0.03}),
             NS(group="mobile", stage_fractions={"fetch": fetch_mobile})]
    fig08 = NS(mean_branch_pct=a1, mean_cdp_pct=a2)
    fig10 = NS(mean_hoist_pct=hoist, mean_critic_pct=critic)
    fig12a = [NS(length=n, speedup_pct=v)
              for n, v in zip((2, 3, 4, 5, 7, 9), lengths)]
    fig12b = [NS(profiled_fraction=f, speedup_pct=v)
              for f, v in zip((0.1, 0.33, 0.72, 1.0), coverage)]
    fig13 = NS(mean_speedups_pct=list(opp))
    return fig03, fig08, fig10, fig12a, fig12b, fig13


SCHEMES = ("opp16", "compress", "critic", "opp16_critic")


def test_paper_shaped_results_pass_every_shape():
    shapes = fidelity.scoreboard(*_figures(), SCHEMES)
    assert len(shapes) == 6
    assert all(s.passed for s in shapes), shapes
    lines = fidelity.format_scoreboard(shapes)
    assert all(line.startswith("shape PASS") for line in lines)


@pytest.mark.parametrize("override,failing", [
    ({"fetch_mobile": 0.02}, "fig03a.mobile_fetch_gt_spec"),
    ({"a1": -2.2}, "fig08.approach1_between"),
    ({"a1": 10.0}, "fig08.approach1_between"),
    ({"critic": 0.5, "hoist": 0.7}, "fig10a.critic_gt_hoist"),
    ({"lengths": (1.0, 2.0, 6.0, 5.0, 4.0, 2.0)}, "fig12a.peak_at_5"),
    ({"coverage": (4.0, 10.0, 9.0, 15.0)}, "fig12b.monotone"),
    ({"opp": (-0.6, -1.1, 0.5, 0.1)}, "fig13a.opp16_lt_critic_lt_both"),
])
def test_each_shape_fails_on_its_own_violation(override, failing):
    shapes = fidelity.scoreboard(*_figures(**override), SCHEMES)
    assert [s.name for s in shapes if not s.passed] == [failing]


# -- correctness gate ------------------------------------------------------------


def _stats(**changes):
    from repro.cpu import SimStats

    return dataclasses.replace(SimStats(cycles=1000, instructions=800),
                               **changes)


def test_gate_fails_on_a_perturbed_simstats():
    base = _stats()
    gate.require_equal(base, _stats(), "same")
    with pytest.raises(gate.GateError, match="cycles"):
        gate.require_equal(base, _stats(cycles=1001), "perturbed")
    assert gate.diff_stats(base, _stats(cycles=1, instructions=2)) == \
        ["cycles", "instructions"]


def test_gate_fails_on_truncated_or_empty_stats():
    gate.check_stats(_stats(), "ok")
    with pytest.raises(gate.GateError, match="truncated"):
        gate.check_stats(_stats(truncated=True), "cell")
    with pytest.raises(gate.GateError, match="zero instructions"):
        gate.check_stats(_stats(instructions=0), "cell")


def test_digest_is_order_independent_and_sensitive():
    a, b = {"x": 1}, {"y": 2}
    assert gate.digest([a, b]) == gate.digest([b, a])
    assert gate.digest([a, b]) != gate.digest([a, {"y": 3}])
