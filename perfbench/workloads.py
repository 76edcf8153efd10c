"""The four benchmark workloads, driven through the program's public API.

Each workload sets up once (the cost ``setup_s`` reports), then runs
timed *passes*; every pass repeats the same work from the same state,
so a run reports the mean pass.  Outputs are checked outside the
timed region (:mod:`perfbench.gate`).

Why these four (each stresses layers the others bypass):

* ``cold_sweep`` -- the cold path: generate, materialize, compile,
  CritIC profile, inline cycle loop and trace-artifact writes, with 3
  dispatch tasks on 2 workers.  Bypasses the batch engine.
* ``fig11_batch`` -- one trace shared by the seven Fig-11 configs, so
  the batch engine does most of the work.  Compile and materialize are
  small.
* ``warm_figures`` -- figure regeneration from a warm cache: the cache's
  read side with big trace blobs and figure post-processing.  No
  simulation.
* ``serve_warm`` -- a closed loop of requests against ``python -m
  repro.serve`` on a warm cache: serving, wire framing and small stats
  reads.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import fidelity, gate
from perfbench.metrics import busy_frac, median
from perfbench.tracing import (Span, Tracer, install_layers, load_spans,
                                window)

#: Worker processes of the default executor (the box has 2 cores).
WORKERS = 2

#: Mobile apps in cost tiers for ``cold_sweep`` (1-worker, 8-scheme
#: sweep at walk 150 on a 2-core x86-64 box: 2.2-2.3 s, 2.0-2.1 s,
#: 1.85-1.95 s).  The seed picks one app per tier, so the work of a pass
#: varies little from seed to seed.  Acrobat and Music are left out:
#: their traces are 30% longer and 30% shorter than the rest.
COLD_TIERS = (("Browser", "Office", "Maps"),
              ("Angrybirds", "Email", "Photogallery"),
              ("Youtube", "Facebook"))
#: Pairs of mobile apps with similar trace lengths (within 10%); the
#: seed picks one app of each pair for ``serve_warm``.
SERVE_TIERS = (("Maps", "Email"), ("Youtube", "Facebook"),
               ("Office", "Angrybirds"), ("Browser", "Photogallery"))
#: The mobile apps whose walk-300 traces run every Fig-11 config on the
#: compiled batch kernel (the other six fall back to the inline engine
#: for "L2 set conflict"), of similar cost (1-worker batch sweep: 0.7-0.8
#: s on a 2-core x86-64 box); the seed picks two.
BATCH_POOL = ("Facebook", "Maps", "Youtube")


@dataclass
class Pass:
    """One timed pass."""

    seconds: float
    #: latency of each operation a caller waits on, in seconds
    latencies: List[float]
    instructions: int
    attempted: int
    failed: int = 0


@dataclass
class TraceResult:
    spans: List[Span]
    wall_s: float
    cells: int
    overhead_frac: float
    #: every pass the traced run made (for attempted/failed)
    passes: List[Pass]
    extra: Dict[str, float] = field(default_factory=dict)


def use_cache(path: str) -> None:
    """Point the program's artifact cache at ``path`` and drop every
    in-process memo, as a fresh process would start."""
    from repro.cache import reset_cache
    from repro.experiments import runner

    os.makedirs(path, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = path
    reset_cache()
    runner.clear_cache()


class Workload:
    name = ""

    def __init__(self, seed: int, state: str, traced: bool) -> None:
        self.state = state
        self.traced = traced
        self.rng = random.Random(seed)
        self._passes = 0

    def _dir(self, label: str) -> str:
        path = os.path.join(self.state, label)
        os.makedirs(path, exist_ok=True)
        return path

    def setup(self) -> None:
        """Work done before the first timed operation."""

    def run_pass(self, jobs: int) -> Pass:
        raise NotImplementedError

    def check(self) -> List[str]:
        """Correctness checks after the timed passes; returns printable
        lines (digests, scoreboard).  Raises GateError on a failure."""
        return []

    def cells(self) -> int:
        """App x scheme x config cells one pass resolves."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop everything setup started."""

    def traced_pass(self) -> TraceResult:
        """1-worker passes in the order untraced, traced, traced,
        untraced (so neither side always runs first); spans come from
        the last traced pass, and the untraced passes are the overhead
        reference."""
        tracer = Tracer()

        def traced_run() -> Pass:
            tracer.reset()
            install_layers(tracer)
            try:
                return self.run_pass(jobs=1)
            finally:
                tracer.uninstall()

        plain = [self.run_pass(jobs=1)]
        traced = [traced_run(), traced_run()]
        plain.append(self.run_pass(jobs=1))
        return TraceResult(spans=tracer.spans, wall_s=traced[-1].seconds,
                           cells=self.cells(),
                           overhead_frac=overhead(plain, traced),
                           passes=plain + traced)


def overhead(plain: List[Pass], traced: List[Pass]) -> float:
    return (median([p.seconds for p in traced])
            / median([p.seconds for p in plain]) - 1)


class _SweepWorkload(Workload):
    """A cold sweep through ``run_sweep``: every pass gets an empty
    cache directory and empty in-process memos."""

    walk = 0
    schemes: Tuple[str, ...] = ()
    configs: Tuple[str, ...] = ()
    engine: Optional[str] = None
    apps: Tuple[str, ...] = ()

    def __init__(self, seed: int, state: str, traced: bool) -> None:
        super().__init__(seed, state, traced)
        self.first: Optional[Dict] = None
        self.result = None

    def spec(self, jobs: int):
        from repro.experiments.sweep import SweepSpec

        return SweepSpec(apps=self.apps, schemes=self.schemes,
                         configs=self.configs, walk_blocks=self.walk,
                         jobs=jobs, engine=self.engine)

    def cells(self) -> int:
        return len(self.apps) * len(self.schemes) * len(self.configs)

    def run_pass(self, jobs: int) -> Pass:
        from repro.experiments import sweep

        self._passes += 1
        cache_dir = self._dir(f"cache-{self._passes}")
        use_cache(cache_dir)
        spec = self.spec(jobs)
        started = time.perf_counter()
        result = sweep.run_sweep(spec)
        seconds = time.perf_counter() - started
        grid = {(app, scheme, config): stats
                for app, cells in result.grid.items()
                for (scheme, config), stats in cells.items()}
        for where, stats in grid.items():
            gate.check_stats(stats, "/".join(where))
        if self.first is None:
            self.first = grid
            self.result = result
            self.sample_check()
        else:
            for where, stats in grid.items():
                gate.require_equal(self.first[where], stats,
                                   "repeat pass " + "/".join(where))
        shutil.rmtree(cache_dir, ignore_errors=True)
        return Pass(seconds=seconds, latencies=[seconds],
                    instructions=sum(s.instructions for s in grid.values()),
                    attempted=len(grid))

    def sample_check(self) -> None:
        """Outside the timed region, right after the first pass."""

    def traced_pass(self) -> TraceResult:
        """Dispatch metrics come from an untraced pass on the default
        ``WORKERS``; layer spans from a 1-worker pass."""
        from repro.experiments import runner

        reference = self.run_pass(jobs=WORKERS)
        report = runner.last_dispatch_report()
        result = super().traced_pass()
        result.passes.append(reference)
        attempts = [a for r in report.results for a in r.attempts]
        result.extra = {
            "dispatch.tasks": len(report.results),
            "dispatch.attempts": len(attempts),
            "dispatch.retries": sum(r.retries for r in report.results),
            # The sweep's wall time stands in for the drain time.
            "dispatch.busy_frac": busy_frac(
                (a.wall_s for a in attempts), report.workers,
                reference.seconds),
        }
        return result

    def check(self) -> List[str]:
        records = [{"cell": list(where), "stats": asdict(stats)}
                   for where, stats in self.first.items()]
        return [f"apps {','.join(self.apps)}",
                f"digest {self.name} simstats {gate.digest(records)}"]


class ColdSweep(_SweepWorkload):
    name = "cold_sweep"
    walk = 150
    configs = ("google-tablet",)

    def __init__(self, seed: int, state: str, traced: bool) -> None:
        super().__init__(seed, state, traced)
        from repro.registry import SCHEME_RECIPES

        self.schemes = tuple(SCHEME_RECIPES.names())
        self.apps = tuple(self.rng.choice(tier) for tier in COLD_TIERS)


class Fig11Batch(_SweepWorkload):
    name = "fig11_batch"
    walk = 300
    schemes = ("baseline", "critic")
    engine = "batch"

    def __init__(self, seed: int, state: str, traced: bool) -> None:
        super().__init__(seed, state, traced)
        from repro.experiments.fig11 import MECHANISMS

        self.configs = ("google-tablet",) + MECHANISMS
        self.apps = tuple(self.rng.sample(BATCH_POOL, 2))
        self.sample = (self.rng.choice(self.apps),
                       self.rng.choice(self.schemes),
                       self.rng.choice(self.configs))

    def sample_check(self) -> None:
        """Re-simulate one batched cell with the inline engine."""
        from repro.cpu import simulate
        from repro.experiments import runner

        app, scheme, config_name = self.sample
        config = {c.name: c for c in self.result.configs}[config_name]
        trace = runner.app_context(app, self.walk).scheme_trace(scheme)
        inline = simulate(trace, config, engine="inline")
        gate.require_equal(inline, self.first[self.sample],
                           "inline re-simulation of " + "/".join(self.sample))


class WarmFigures(Workload):
    name = "warm_figures"
    apps = 1
    per_group = 1
    walk = 150

    def __init__(self, seed: int, state: str, traced: bool) -> None:
        super().__init__(seed, state, traced)
        self.cold_texts: List[str] = []
        self.shapes: List[fidelity.Shape] = []
        self.n_cells = 0
        self.instructions = 0

    def _figures(self):
        """(label, run, format) per figure call."""
        from repro.experiments import fig03, fig08, fig10, fig11, fig12, \
            fig13

        apps, walk = self.apps, self.walk
        return [
            ("fig03", lambda: fig03.run(per_group=self.per_group,
                                        walk_blocks=walk),
             fig03.format_result),
            ("fig08", lambda: fig08.run(apps=apps, walk_blocks=walk),
             fig08.format_result),
            ("fig10", lambda: fig10.run(apps=apps, walk_blocks=walk),
             fig10.format_result),
            ("fig11", lambda: fig11.run(apps=apps, walk_blocks=walk),
             fig11.format_result),
            ("fig12a", lambda: fig12.run_length_sensitivity(
                apps=apps, walk_blocks=walk), fig12.format_length),
            ("fig12b", lambda: fig12.run_profile_sensitivity(
                apps=apps, walk_blocks=walk), fig12.format_profile),
            ("fig13", lambda: fig13.run(apps=apps, walk_blocks=walk),
             fig13.format_result),
        ]

    def _regenerate(self) -> Tuple[List[str], Dict]:
        texts, results = [], {}
        for label, run, fmt in self._figures():
            result = run()
            texts.append(fmt(result))
            results[label] = result
        return texts, results

    def setup(self) -> None:
        """The cold fill: the first regeneration, into an empty cache."""
        from repro.cache import get_cache
        from repro.cpu import SimStats
        from repro.experiments import fig13

        self.cache_dir = self._dir("cache")
        use_cache(self.cache_dir)
        self.cold_texts, results = self._regenerate()
        self.shapes = fidelity.scoreboard(
            results["fig03"], results["fig08"], results["fig10"],
            results["fig12a"], results["fig12b"], results["fig13"],
            fig13.SCHEMES)
        cache = get_cache()
        for key in cache.backend.list("stats"):
            stats = cache.load_stats(key)
            gate.check_stats(stats, f"stats {key[:12]}")
            self.n_cells += 1
            self.instructions += stats.instructions
        for key in cache.backend.list("fig12a"):
            stats = SimStats.from_dict(cache.load_json("fig12a", key)["stats"])
            gate.check_stats(stats, f"fig12a {key[:12]}")
            self.n_cells += 1
            self.instructions += stats.instructions

    def cells(self) -> int:
        return self.n_cells

    def run_pass(self, jobs: int) -> Pass:
        os.environ["REPRO_JOBS"] = str(jobs)
        use_cache(self.cache_dir)
        started = time.perf_counter()
        texts, _results = self._regenerate()
        seconds = time.perf_counter() - started
        for label, cold, warm in zip(
                [f[0] for f in self._figures()], self.cold_texts, texts):
            if cold != warm:
                raise gate.GateError(f"{label}: warm text differs from "
                                     "the cold fill's")
        return Pass(seconds=seconds, latencies=[seconds],
                    instructions=self.instructions,
                    attempted=len(texts))

    def check(self) -> List[str]:
        digest = gate.digest({"figure": i, "text": t}
                             for i, t in enumerate(self.cold_texts))
        return [f"digest {self.name} figures {digest}"] \
            + fidelity.format_scoreboard(self.shapes)

    def traced_pass(self) -> TraceResult:
        result = super().traced_pass()
        result.extra = {"fidelity.shapes_passed":
                        sum(s.passed for s in self.shapes)}
        return result


def _pin(index: int) -> None:
    """Bind the calling process to its ``index``-th allowed CPU, when
    there are two or more: the server on one and the load generator on
    another, so the scheduler cannot put both on one CPU for a run.
    On a 2-vCPU host the ten-seed IQR/median of serve_warm's wall_s was
    0.36 unpinned and 0.16-0.29 pinned."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[index]})


class SeededRequests:
    """A fixed request list in seeded order (a ``repro.loadgen``
    workload: ``reqs()`` yields ``Req`` objects)."""

    name = "seeded-grid"

    def __init__(self, reqs) -> None:
        self._reqs = reqs

    def reqs(self):
        from repro.loadgen.base import Req

        for index, req in enumerate(itertools.cycle(self._reqs)):
            yield Req(index=index, shape=req.shape, spec=req.spec)


class ServeWarm(Workload):
    name = "serve_warm"
    walk = 100
    schemes = ("baseline", "hoist", "critic")
    configs = ("google-tablet", "2xFD")
    mix = "cell=8,app=1,full=1"
    requests = 1000
    warm_requests = 200
    connections = 2

    def __init__(self, seed: int, state: str, traced: bool) -> None:
        super().__init__(seed, state, traced)
        self.apps = tuple(self.rng.choice(tier) for tier in SERVE_TIERS)
        self.servers: Dict[str, subprocess.Popen] = {}
        self.addresses: Dict[str, Tuple[str, int]] = {}

    def _grid_spec(self) -> Dict:
        return {"apps": list(self.apps), "schemes": list(self.schemes),
                "configs": list(self.configs), "walk_blocks": self.walk}

    def setup(self) -> None:
        from repro.experiments import sweep
        from repro.loadgen.base import SweepGridWorkload, parse_mix

        self.cache_dir = self._dir("cache")
        use_cache(self.cache_dir)
        result = sweep.run_sweep(sweep.SweepSpec.from_dict(
            dict(self._grid_spec(), jobs=WORKERS)))
        self.fill = {(app, scheme, config): stats
                     for app, cells in result.grid.items()
                     for (scheme, config), stats in cells.items()}
        for where, stats in self.fill.items():
            gate.check_stats(stats, "/".join(where))
        grid = SweepGridWorkload(spec=self._grid_spec(),
                                 mix=parse_mix(self.mix))
        reqs = list(itertools.islice(grid.reqs(), self.requests))
        self.rng.shuffle(reqs)
        self.workload = SeededRequests(reqs)
        self.instructions = sum(
            self.fill[(app, scheme, config)].instructions
            for req in reqs for app in req.spec["apps"]
            for scheme in req.spec["schemes"]
            for config in req.spec["configs"])
        if self.traced:
            self._start("plain", ["--executor", "inline"])
            self._start("traced", ["--executor", "inline"], traced=True)
        else:
            self._start("plain", ["--workers", str(WORKERS)])

    def _start(self, label: str, extra: List[str],
               traced: bool = False) -> None:
        ready = os.path.join(self.state, f"ready-{label}.json")
        env = dict(os.environ, REPRO_CACHE_DIR=self.cache_dir)
        if traced:
            self.spans_path = os.path.join(self.state, "server-spans.json")
            env["PERFBENCH_SPANS"] = self.spans_path
            program = [sys.executable,
                       os.path.join(os.path.dirname(__file__),
                                    "serve_main.py")]
        else:
            program = [sys.executable, "-m", "repro.serve"]
        proc = subprocess.Popen(
            program + ["--wire-port", "0", "--http-port", "0",
                       "--ready-file", ready] + extra,
            env=env, stdout=subprocess.DEVNULL,
            preexec_fn=lambda: _pin(0))
        self.servers[label] = proc
        deadline = time.monotonic() + 60
        while not os.path.exists(ready) or not os.path.getsize(ready):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"serve ({label}) did not start")
            time.sleep(0.02)
        while True:
            try:
                with open(ready) as handle:
                    record = json.load(handle)
                break
            except ValueError:  # caught mid-write
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        self.addresses[label] = (record["host"], record["wire_port"])
        self._warm_up(label)

    def _warm_up(self, label: str) -> None:
        """One single-cell request alone, then an untimed session of
        ``warm_requests``.

        A fresh server fills its component registries on the first
        lookup, and that fill is not thread-safe
        (``Registry._ensure_providers`` marks the registry loaded
        before importing its providers): two concurrent first requests
        can fail with ``RegistryError: unknown ... (known: [])``.  The
        benchmark measures a warm server, so it sends the lone request
        first.  The untimed session follows because the first session
        on a fresh server ran 20-50% slower than the later ones."""
        from repro.serve.client import ServeClient

        spec = dict(self._grid_spec(), apps=[self.apps[0]],
                    schemes=[self.schemes[0]], configs=[self.configs[0]])
        with ServeClient(self.addresses[label], timeout_s=60.0) as client:
            for record in client.sweep(spec, job_id="warm-up"):
                if record.get("type") == "done" and record.get("failed"):
                    raise gate.GateError(f"serve ({label}) warm-up "
                                         f"failed: {record}")
        if self._session(label, self.warm_requests).failed:
            raise gate.GateError(f"serve ({label}) warm-up session failed")

    def _stop(self, label: str) -> None:
        proc = self.servers.pop(label, None)
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def teardown(self) -> None:
        for label in list(self.servers):
            self._stop(label)

    def cells(self) -> int:
        return self._served

    def _session(self, label: str, requests: int = 0) -> Pass:
        from repro.loadgen.engines import ClosedLoopEngine

        engine = ClosedLoopEngine(concurrency=self.connections,
                                  timeout_s=60.0)
        own = os.sched_getaffinity(0)
        _pin(1)
        try:
            started = time.perf_counter()
            report = engine.run(self.addresses[label], self.workload,
                                requests or self.requests)
            seconds = time.perf_counter() - started
        finally:
            os.sched_setaffinity(0, own)
        samples = report["samples"]
        self._served = report["cells"]["served"]
        for sample in [s for s in samples if not s["ok"]][:5]:
            print(f"perfbench: {label} request {sample['index']} failed: "
                  f"{sample.get('error') or sample}", file=sys.stderr)
        return Pass(seconds=seconds,
                    latencies=[s["latency_s"] for s in samples if s["ok"]],
                    instructions=self.instructions,
                    attempted=len(samples),
                    failed=report["requests"]["failed"])

    def run_pass(self, jobs: int) -> Pass:
        return self._session("plain")

    def check(self) -> List[str]:
        """Every served cell equals the stats the fill computed."""
        from repro.cpu import SimStats
        from repro.serve.client import ServeClient

        served = 0
        label = next(iter(self.addresses))
        with ServeClient(self.addresses[label], timeout_s=60.0) as client:
            for record in client.sweep(self._grid_spec(), job_id="check"):
                if record.get("type") != "cell":
                    continue
                where = (record["app"], record["scheme"], record["config"])
                if "error" in record:
                    raise gate.GateError(f"served {where}: {record['error']}")
                gate.require_equal(self.fill[where],
                                   SimStats.from_dict(record["stats"]),
                                   "served " + "/".join(where))
                served += 1
        if served != len(self.fill):
            raise gate.GateError(f"served {served} of {len(self.fill)} cells")
        records = [{"cell": list(where), "stats": asdict(stats)}
                   for where, stats in self.fill.items()]
        return [f"apps {','.join(self.apps)}",
                f"digest {self.name} simstats {gate.digest(records)}"]

    def traced_pass(self) -> TraceResult:
        """Spans are recorded in a second, traced server (inline
        executor, so every call lands in that one process) and read
        back when it exits.  Both traced sessions count: the first
        reads stats from disk, the second from the server's memo."""
        plain = [self._session("plain")]
        started = time.perf_counter()
        traced = [self._session("traced"), self._session("traced")]
        ended = time.perf_counter()
        plain.append(self._session("plain"))
        self._stop("traced")
        spans = window(load_spans(self.spans_path), started, ended)
        return TraceResult(spans=spans,
                           wall_s=sum(p.seconds for p in traced),
                           cells=2 * self._served,
                           overhead_frac=overhead(plain, traced),
                           passes=plain + traced)


WORKLOADS = {cls.name: cls for cls in (ColdSweep, Fig11Batch, WarmFigures,
                                       ServeWarm)}
