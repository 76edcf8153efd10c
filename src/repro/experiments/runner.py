"""Experiment runner: app x scheme x hardware-config simulations.

Central plumbing for every figure/table reproduction:

* workloads, traces, profiles, and transformed programs are generated once
  per app and memoized in-process (figures share them);
* every derived artifact (baseline/scheme traces, CritIC profiles,
  simulation stats) is also persisted in the content-addressed disk cache
  (:mod:`repro.cache`), so warm runs skip generation, compilation, and
  simulation entirely;
* the evaluated *schemes* (baseline / Hoist / CritIC / CritIC.Ideal /
  Approach-1 branch switching / OPP16 / Compress / OPP16+CritIC) are
  expressed as compiler pipelines over the same program + walk;
* :func:`run_apps` fans the app x config grid out through a registered
  *execution backend* (:data:`repro.registry.EXECUTORS` — ``inline``,
  ``pool``, or the socket-broker ``fleet``; selected by ``executor=``,
  ``REPRO_EXECUTOR``, or the sweep CLI's ``--executor``) sized by
  ``REPRO_JOBS``, and seeds the in-process memo with the results, so
  figure modules stay simple serial loops;
* workers report their telemetry (phase timers, counters, span trees)
  back with their results — spooled to temp files when a worker
  crashes — so ``REPRO_PERF=1`` totals are fleet-wide; retried attempts'
  telemetry is discarded so a retried cell is counted exactly once; and
  every invocation leaves a run manifest (including the executor's
  per-task attempt records) next to the artifact cache;
* trace length is controlled by ``REPRO_WALK_BLOCKS`` (default 700 dynamic
  blocks, ~25-60k instructions per app) so benches run at laptop scale;
  the paper's full-scale methodology (100 x 500k-instruction samples) is
  structurally identical, just larger.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.cache import artifact_key, get_cache
from repro.dispatch import (
    ENV_EXECUTOR,
    ENV_FAULTS,
    DispatchReport,
    RetryPolicy,
    TaskResult,
    TaskSpec,
)
from repro.dispatch.base import _env_int
from repro.telemetry.manifest import record_run
from repro.compiler import PassManager
from repro.cpu import CpuConfig, GOOGLE_TABLET, SimStats, simulate
from repro.cpu.engines import ENV_ENGINE
from repro.profiler import CriticProfile, FinderConfig, find_critic_profile
from repro.registry import (
    EXECUTORS,
    SCHEME_RECIPES,
    SIMULATORS,
    WORKLOAD_FAMILIES,
    component_identity,
)
from repro.trace.dynamic import Trace
from repro.workloads import (
    Workload,
    WorkloadProfile,
    build_workload,
    get_profile,
)

#: Dynamic block budget for generated walks (env-overridable).
DEFAULT_WALK_BLOCKS = _env_int("REPRO_WALK_BLOCKS", 700)

#: Scheme names accepted by :func:`scheme_trace` — derived from the
#: recipe registry (:mod:`repro.experiments.schemes` registers the
#: paper's eight in canonical order), so registering a new recipe is the
#: whole story: it shows up here, in the sweep engine, and in the fuzzer.
SCHEMES = SCHEME_RECIPES.names()

_workloads: Dict[Tuple[str, int, str], "AppContext"] = {}


def default_jobs() -> int:
    """Worker count for :func:`run_apps` (``REPRO_JOBS`` or cpu count)."""
    return _env_int("REPRO_JOBS", os.cpu_count() or 1)


@dataclass
class AppContext:
    """Everything derived from one app at one scale, lazily materialized.

    ``app_profile`` is the *scaled* workload profile (its ``walk_blocks``
    already reflects the requested scale), which makes it the complete
    generation parameter record — and therefore the disk-cache key root
    for every artifact derived from this app.
    """

    app_profile: WorkloadProfile
    #: workload family (scenario generator) this context builds under;
    #: see :data:`repro.registry.WORKLOAD_FAMILIES`.  Non-default
    #: families fold their versioned identity into every cache key.
    workload_family: str = "default"
    profile: Optional[CriticProfile] = None
    _workload: Optional[Workload] = None
    _traces: Dict[str, Trace] = field(default_factory=dict)
    _stats: Dict[Tuple[str, str], SimStats] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.app_profile.name

    def _family_key_params(self) -> Dict[str, str]:
        """Cache-key params for the family: empty for ``default`` so
        existing default-family keys stay byte-identical."""
        if self.workload_family == "default":
            return {}
        return {"workload_family":
                WORKLOAD_FAMILIES.identity(self.workload_family)}

    @property
    def workload(self) -> Workload:
        """The generated program/walk/memory (built on first touch)."""
        if self._workload is None:
            with telemetry.phase("generate"):
                self._workload = build_workload(self.workload_family,
                                                self.app_profile)
        return self._workload

    def trace(self) -> Trace:
        """The baseline dynamic trace (disk-cached via :mod:`repro.cache`)."""
        trace = self._traces.get("baseline")
        if trace is not None:
            return trace
        cache = get_cache()
        key = artifact_key("trace", profile=self.app_profile,
                           scheme="baseline",
                           **self._family_key_params())
        trace = cache.load_trace(key)
        if trace is None:
            with telemetry.phase("materialize"):
                trace = self.workload.trace()
            cache.store_trace(key, trace)
        else:
            # Share the loaded trace with Workload.trace() callers.
            if self._workload is not None:
                self._workload.adopt_trace(trace)
        self._traces["baseline"] = trace
        return trace

    def critic_profile(self, profiled_fraction: float = 1.0,
                       max_length: Optional[int] = None) -> CriticProfile:
        """The offline profiler's output (memoized for the default config)."""
        default = profiled_fraction >= 1.0 and max_length is None
        if default and self.profile is not None:
            return self.profile
        config = FinderConfig(
            profiled_fraction=profiled_fraction,
            max_length=max_length,
        )
        cache = get_cache()
        key = artifact_key("critic_profile", profile=self.app_profile,
                           finder=config, **self._family_key_params())
        profile = cache.load_profile(key)
        if profile is None:
            with telemetry.phase("find_critic_profile"):
                profile = find_critic_profile(
                    self.trace(), self.workload.program, config,
                    app_name=self.name,
                )
            cache.store_profile(key, profile)
        if default:
            self.profile = profile
        return profile

    # -- schemes ---------------------------------------------------------------

    def _passes(self, scheme: str, max_length: int = 5,
                profiled_fraction: float = 1.0):
        """The compiler pipeline for ``scheme``, via the recipe registry.

        Unknown names get the registry's did-you-mean suggestion
        (``RegistryError`` is a ``KeyError`` *and* carries the hint, so
        legacy ``except (ValueError, KeyError)`` call sites still work).
        """
        recipe = SCHEME_RECIPES.get(scheme)
        return list(recipe(self, max_length, profiled_fraction))

    def _scheme_key(self, scheme: str, max_length: int,
                    profiled_fraction: float) -> str:
        return artifact_key(
            "trace",
            profile=self.app_profile,
            scheme=SCHEME_RECIPES.identity(scheme),
            max_length=max_length,
            profiled_fraction=profiled_fraction,
            finder=FinderConfig(profiled_fraction=profiled_fraction),
            **self._family_key_params(),
        )

    def scheme_trace(self, scheme: str, max_length: int = 5,
                     profiled_fraction: float = 1.0) -> Trace:
        """The dynamic trace under ``scheme`` (memoized for defaults)."""
        default = max_length == 5 and profiled_fraction >= 1.0
        if default and scheme in self._traces:
            return self._traces[scheme]
        if scheme == "baseline":
            return self.trace()
        cache = get_cache()
        key = self._scheme_key(scheme, max_length, profiled_fraction)
        trace = cache.load_trace(key)
        if trace is None:
            with telemetry.phase("compile"):
                result = PassManager(
                    self._passes(scheme, max_length, profiled_fraction)
                ).run(self.workload.program)
            with telemetry.phase("materialize"):
                trace = self.workload.trace_for(result.program)
            cache.store_trace(key, trace)
        if default:
            self._traces[scheme] = trace
        return trace

    def _stats_key(self, scheme: str, config: CpuConfig, max_length: int,
                   profiled_fraction: float) -> str:
        # The versioned component identities (``two-level@1``,
        # ``lru@1``, ``clpt@1`` ...) ride along with the config record:
        # re-versioning one registered component invalidates exactly the
        # cached stats that simulated with it, nothing else.
        return artifact_key(
            "stats",
            profile=self.app_profile,
            scheme=SCHEME_RECIPES.identity(scheme),
            max_length=max_length,
            profiled_fraction=profiled_fraction,
            finder=FinderConfig(profiled_fraction=profiled_fraction),
            config=config,
            components=component_identity(config),
            **self._family_key_params(),
        )

    def cached_stats(self, scheme: str = "baseline",
                     config: CpuConfig = GOOGLE_TABLET,
                     max_length: int = 5,
                     profiled_fraction: float = 1.0) -> Optional[SimStats]:
        """Look up stats in the memo/disk cache without computing them."""
        default = max_length == 5 and profiled_fraction >= 1.0
        memo_key = (scheme, config.name)
        if default and memo_key in self._stats:
            return self._stats[memo_key]
        stats = get_cache().load_stats(
            self._stats_key(scheme, config, max_length, profiled_fraction)
        )
        if stats is not None and default:
            self._stats[memo_key] = stats
        return stats

    def stats(self, scheme: str = "baseline",
              config: CpuConfig = GOOGLE_TABLET,
              max_length: int = 5,
              profiled_fraction: float = 1.0,
              engine: Optional[str] = None) -> SimStats:
        """Simulate ``scheme`` on ``config`` (memo + disk cached).

        ``engine`` picks the simulation engine (see
        :data:`repro.registry.SIMULATORS`); engines are bit-identical,
        so cache keys don't carry it and a cached cell satisfies any
        engine's request.
        """
        stats = self.cached_stats(scheme, config, max_length,
                                  profiled_fraction)
        if stats is not None:
            return stats
        return self.compute_stats(scheme, config, max_length,
                                  profiled_fraction, engine)

    def compute_stats(self, scheme: str = "baseline",
                      config: CpuConfig = GOOGLE_TABLET,
                      max_length: int = 5,
                      profiled_fraction: float = 1.0,
                      engine: Optional[str] = None) -> SimStats:
        """Simulate and store a cell without probing the stats cache —
        for callers (the sweep's cell tasks) that already probed it."""
        trace = self.scheme_trace(scheme, max_length, profiled_fraction)
        with telemetry.phase("simulate"):
            stats = simulate(trace, config, engine=engine)
        get_cache().store_stats(
            self._stats_key(scheme, config, max_length, profiled_fraction),
            stats,
        )
        if max_length == 5 and profiled_fraction >= 1.0:
            self._stats[(scheme, config.name)] = stats
        return stats


def app_context(name: str,
                walk_blocks: Optional[int] = None,
                workload_family: str = "default") -> AppContext:
    """Get (and memoize) the :class:`AppContext` for one app/benchmark."""
    blocks = walk_blocks if walk_blocks is not None else DEFAULT_WALK_BLOCKS
    key = (name, blocks, workload_family)
    if key not in _workloads:
        base = get_profile(name)
        # Same scaling `generate()` would apply, hoisted here so the scaled
        # profile can serve as the cache-key record without generating.
        scaled = base.scaled(blocks / base.walk_blocks)
        _workloads[key] = AppContext(app_profile=scaled,
                                     workload_family=workload_family)
    return _workloads[key]


def clear_cache() -> None:
    """Drop all in-process memoized workloads/stats (tests use this)."""
    _workloads.clear()


# -- parallel fan-out ----------------------------------------------------------


def _observe_cell(name: str, scheme: str, config_name: str,
                  stats: SimStats, wall: float) -> None:
    """Metrics + event for one computed app x scheme x config cell.

    Fires in whichever process ran the cell; the worker's registry rides
    its result snapshot back to the parent, where retried attempts are
    discarded — so fleet-wide totals count every cell exactly once.
    Events, by contrast, narrate *attempts* as they happen: a killed
    worker's ``sweep.cell.start`` stays in the log (that is the point).
    """
    telemetry.inc("repro_cells_total",
                  help="Sweep cells by completion status.",
                  status="done")
    telemetry.inc("repro_sim_instructions_total", stats.instructions,
                  help="Instructions committed by cell simulations.")
    telemetry.observe("repro_cell_wall_seconds", wall,
                      help="Wall seconds per computed cell.")
    telemetry.emit("sweep.cell.done", app=name, scheme=scheme,
                   config=config_name, instructions=stats.instructions,
                   cycles=stats.cycles, wall_s=round(wall, 6))


def _run_cell(name: str, blocks: int, schemes: Tuple[str, ...],
              config: CpuConfig, engine: Optional[str] = None,
              workload_family: str = "default",
              ) -> Tuple[str, str, Dict[str, SimStats]]:
    """Worker body: compute all ``schemes`` for one app x config cell.

    The caller's probe already missed the stats cache for every scheme,
    so the cell computes without a second lookup."""
    ctx = app_context(name, blocks, workload_family)
    cell: Dict[str, SimStats] = {}
    for scheme in schemes:
        telemetry.emit("sweep.cell.start", app=name, scheme=scheme,
                       config=config.name)
        started = time.perf_counter()
        stats = ctx.compute_stats(scheme, config, engine=engine)
        _observe_cell(name, scheme, config.name, stats,
                      time.perf_counter() - started)
        cell[scheme] = stats
    return name, config.name, cell


#: Task-id suffix marking a batched (one trace x many configs) cell.
_BATCH_TAG = "batch"


def _run_batch_cell(
    name: str, blocks: int, scheme: str, configs: Tuple[CpuConfig, ...],
    workload_family: str = "default",
) -> Tuple[str, str, Dict[str, SimStats]]:
    """Worker body for one batched app x scheme cell: all ``configs``
    advance through the batch engine together (per-cell inline fallback
    happens inside :func:`repro.cpu.batch.simulate_batch`)."""
    from repro.cpu.batch import simulate_batch

    ctx = app_context(name, blocks, workload_family)
    trace = ctx.scheme_trace(scheme)
    telemetry.emit("sweep.cell.start", app=name, scheme=scheme,
                   config=",".join(c.name for c in configs),
                   batched=True)
    started = time.perf_counter()
    with telemetry.phase("simulate"):
        all_stats = simulate_batch(trace, list(configs))
    wall = time.perf_counter() - started
    cache = get_cache()
    cell: Dict[str, SimStats] = {}
    for config, stats in zip(configs, all_stats):
        cache.store_stats(ctx._stats_key(scheme, config, 5, 1.0), stats)
        ctx._stats[(scheme, config.name)] = stats
        cell[config.name] = stats
        _observe_cell(name, scheme, config.name, stats,
                      wall / len(configs))
    return name, f"{scheme}|{_BATCH_TAG}", cell


def _spool_snapshot(spool_dir: str, name: str, config_name: str) -> None:
    """Best-effort dump of this process's telemetry for the parent.

    The snapshot is tagged with the cell identity so the parent can drop
    it if that cell ends up retried serially (whose telemetry would
    otherwise be counted twice).
    """
    try:
        fd, _path = tempfile.mkstemp(
            dir=spool_dir, prefix="telemetry-", suffix=".json",
        )
        with os.fdopen(fd, "w") as handle:
            json.dump({"cell": [name, config_name],
                       "snapshot": telemetry.snapshot()}, handle)
    except OSError:
        pass




def _cell_task(
    name: str, blocks: int, schemes: Tuple[str, ...], config: CpuConfig,
    engine: Optional[str] = None, workload_family: str = "default",
    spool_dir: Optional[str] = None, capture_telemetry: bool = True,
) -> Tuple[str, str, Dict[str, SimStats], Optional[Dict]]:
    """The dispatch task body for one app x config cell.

    Out-of-process attempts (``capture_telemetry=True``, the executors'
    default kwargs) reset/snapshot telemetry and ship it back as a
    delta; in-parent attempts (the inline executor and quarantine
    fallback, via ``inline_kwargs``) record telemetry live under the
    classic ``run_apps.serial`` phase and return no snapshot — merging
    one would double-count the cell.
    """
    if not capture_telemetry:
        with telemetry.phase("run_apps.serial"):
            app, config_name, cell = _run_cell(name, blocks, schemes,
                                               config, engine,
                                               workload_family)
        return app, config_name, cell, None
    telemetry.reset()
    try:
        result = _run_cell(name, blocks, schemes, config, engine,
                           workload_family)
    except BaseException:
        _spool_snapshot(spool_dir, name, config.name)
        raise
    return (*result, telemetry.snapshot())


def _batch_cell_task(
    name: str, blocks: int, scheme: str, configs: Tuple[CpuConfig, ...],
    workload_family: str = "default",
    spool_dir: Optional[str] = None, capture_telemetry: bool = True,
) -> Tuple[str, str, Dict[str, SimStats], Optional[Dict]]:
    """The dispatch task body for one batched app x scheme cell — the
    batch-engine counterpart of :func:`_cell_task`, with the same
    telemetry reset/snapshot/spool protocol (spool tag
    ``(name, "<scheme>|batch")`` matches the task id)."""
    if not capture_telemetry:
        with telemetry.phase("run_apps.serial"):
            app, tag, cell = _run_batch_cell(name, blocks, scheme,
                                             configs, workload_family)
        return app, tag, cell, None
    telemetry.reset()
    try:
        result = _run_batch_cell(name, blocks, scheme, configs,
                                 workload_family)
    except BaseException:
        _spool_snapshot(spool_dir, name, f"{scheme}|{_BATCH_TAG}")
        raise
    return (*result, telemetry.snapshot())


def _drain_spool(spool_dir: str,
                 skip: Optional[Set[Tuple[str, str]]] = None) -> None:
    """Merge and remove any worker telemetry spooled under ``spool_dir``.

    Snapshots tagged with a cell in ``skip`` are discarded instead of
    merged: those cells are about to be re-run serially in the parent,
    and merging the crashed attempt's partial telemetry on top of the
    retry's would double-count the cell's work.
    """
    try:
        names = os.listdir(spool_dir)
    except OSError:
        return
    for entry in names:
        path = os.path.join(spool_dir, entry)
        try:
            with open(path) as handle:
                payload = json.load(handle)
            cell = tuple(payload.get("cell") or ())
            if not (skip and cell in skip):
                telemetry.merge_snapshot(payload["snapshot"])
        except (OSError, ValueError, KeyError, TypeError):
            pass
        try:
            os.unlink(path)
        except OSError:
            pass
    try:
        os.rmdir(spool_dir)
    except OSError:
        pass


def _batch_manifest_block() -> Optional[Dict[str, object]]:
    """Batch-engine provenance for the run manifest, aggregated from the
    merged metrics registry.

    ``repro.cpu.batch.last_batch_report()`` is process-local — under the
    pool/fleet executors the interesting report lives (and dies) in a
    worker.  The ``repro_batch_*`` metric families ride each worker's
    result snapshot back to the parent with exactly-once merge
    semantics, so aggregating *them* here yields fleet-wide group
    shapes and fallback reasons no matter which backend ran the sweep.
    Lands in the manifest's ``extra`` — outside the invocation record,
    so ``config_hash`` never sees it.
    """
    families = telemetry.metrics.REGISTRY.families()
    groups = families.get("repro_batch_groups_total")
    if groups is None or not groups.samples:
        return None
    block: Dict[str, object] = {
        "groups_by_kernel": {
            dict(key).get("kernel", ""): count
            for key, count in sorted(groups.samples.items())
        },
    }
    fallbacks = families.get("repro_batch_fallback_total")
    block["fallbacks_by_reason"] = {
        dict(key).get("reason", ""): count
        for key, count in sorted(fallbacks.samples.items())
    } if fallbacks is not None else {}
    cells = families.get("repro_batch_cells_total")
    if cells is not None:
        block["cells_by_path"] = {
            dict(key).get("path", ""): count
            for key, count in sorted(cells.samples.items())
        }
    width = families.get("repro_batch_group_width")
    if width is not None and width.samples and width.buckets:
        agg: Optional[List[float]] = None
        for cell in width.samples.values():
            agg = list(cell) if agg is None \
                else [a + b for a, b in zip(agg, cell)]
        assert agg is not None
        bounds = [str(int(b)) if float(b).is_integer() else str(b)
                  for b in width.buckets] + ["+Inf"]
        block["group_width"] = {
            "count": int(agg[-2]),
            "sum": agg[-1],
            "buckets": dict(zip(bounds, (int(c) for c in agg[:-2]))),
        }
    return block


#: The dispatch report of the most recent :func:`run_apps` fan-out
#: (``None`` when every cell was already cached).  The sweep engine
#: reads this to fold executor provenance into its own manifest.
_last_report: Optional[DispatchReport] = None


def last_dispatch_report() -> Optional[DispatchReport]:
    """Executor/attempt provenance of the last ``run_apps`` fan-out."""
    return _last_report


def run_apps(apps: Sequence[str],
             schemes: Sequence[str] = ("baseline",),
             jobs: Optional[int] = None,
             configs: Sequence[CpuConfig] = (GOOGLE_TABLET,),
             walk_blocks: Optional[int] = None,
             executor: Optional[str] = None,
             engine: Optional[str] = None,
             workload_family: Optional[str] = None,
             ) -> Dict[str, Dict[Tuple[str, str], SimStats]]:
    """Compute stats for an app x scheme x config grid, in parallel.

    Already-cached cells (in-process memo or disk cache) are collected
    inline; only the cells that actually need generation/simulation are
    fanned out through a registered execution backend
    (:data:`repro.registry.EXECUTORS`) with ``jobs`` workers (default:
    ``REPRO_JOBS`` or the CPU count).  The backend is chosen by the
    ``executor`` argument, else ``REPRO_EXECUTOR``, else ``pool``; an
    effective worker count of 1 always runs ``inline``.  Whatever the
    backend — and whatever faults ``REPRO_DISPATCH_FAULTS`` injects into
    a fleet — the returned stats are bit-identical: failed attempts are
    retried with backoff, poison cells quarantine to the inline path,
    and every attempt is recorded in the run manifest.  Results land
    both in the returned mapping (``app -> (scheme, config.name) ->
    SimStats``) and in the per-app in-process memos, so subsequent
    ``ctx.stats(...)`` calls made by figure modules are hits.

    Each worker ships its telemetry snapshot (phases, counters, span
    trees) back with its result — with a temp-file spool as the fallback
    channel for workers that raise — and the parent merges exactly one
    snapshot per cell (retried attempts are discarded), so a
    ``REPRO_PERF=1`` report covers the whole fleet without
    double-counting.  Every invocation also writes a run manifest
    (config hash, seeds, cache hit/miss counts, wall time, phase table,
    executor attempt records) next to the artifact cache; see
    :mod:`repro.telemetry.manifest`.
    """
    blocks = walk_blocks if walk_blocks is not None else DEFAULT_WALK_BLOCKS
    schemes = tuple(schemes)
    engine_name = (engine or os.environ.get(ENV_ENGINE, "")).strip() \
        or "inline"
    SIMULATORS.entry(engine_name)  # unknown engines fail loudly
    family = workload_family or "default"
    WORKLOAD_FAMILIES.entry(family)  # unknown families fail loudly
    started = time.perf_counter()
    with telemetry.span("run_apps", apps=len(apps),
                        schemes=",".join(schemes)):
        results = _run_apps_grid(apps, schemes, jobs, configs, blocks,
                                 executor, engine_name, family)
    report = _last_report
    # Engine identity rides in ``extra`` — recorded in the manifest but
    # outside the invocation record, so ``config_hash`` (and with it the
    # artifact cache) is engine-blind: engines are bit-identical.
    extra: Dict[str, object] = {
        "engine": SIMULATORS.identity(engine_name),
    }
    if report:
        extra["dispatch"] = report.to_dict()
    batch_block = _batch_manifest_block()
    if batch_block:
        extra["batch"] = batch_block
    record_run(
        "run_apps",
        apps=list(apps),
        schemes=list(schemes),
        configs=[config.name for config in configs],
        walk_blocks=blocks,
        seeds={name: app_context(name, blocks, family).app_profile.seed
               for name in apps},
        wall_s=time.perf_counter() - started,
        components={config.name: component_identity(config)
                    for config in configs},
        workload_family=WORKLOAD_FAMILIES.identity(family),
        extra=extra,
    )
    return results


def _run_apps_grid(
    apps: Sequence[str],
    schemes: Tuple[str, ...],
    jobs: Optional[int],
    configs: Sequence[CpuConfig],
    blocks: int,
    executor: Optional[str] = None,
    engine: str = "inline",
    workload_family: str = "default",
) -> Dict[str, Dict[Tuple[str, str], SimStats]]:
    """The probe + executor fan-out body of :func:`run_apps`."""
    global _last_report
    results: Dict[str, Dict[Tuple[str, str], SimStats]] = {
        name: {} for name in apps
    }
    todo: List[Tuple[str, CpuConfig, Tuple[str, ...]]] = []
    with telemetry.phase("run_apps.probe"):
        for name in apps:
            ctx = app_context(name, blocks, workload_family)
            for config in configs:
                missing = []
                for scheme in schemes:
                    stats = ctx.cached_stats(scheme, config)
                    if stats is None:
                        missing.append(scheme)
                    else:
                        results[name][(scheme, config.name)] = stats
                        telemetry.inc(
                            "repro_cells_total",
                            help="Sweep cells by completion status.",
                            status="cached",
                        )
                        telemetry.emit("sweep.cell.cached", app=name,
                                       scheme=scheme, config=config.name)
                if missing:
                    todo.append((name, config, tuple(missing)))

    _last_report = None
    if not todo:
        return results
    workers = jobs if jobs is not None else default_jobs()
    workers = min(max(1, workers), len(todo))

    backend = (executor or os.environ.get(ENV_EXECUTOR, "")).strip() \
        or "pool"
    EXECUTORS.entry(backend)  # unknown names fail loudly, did-you-mean
    if workers == 1:
        # A single worker is the serial path by definition; the inline
        # executor keeps it deterministic and process-free regardless of
        # which backend the environment asked for.
        backend = "inline"

    def _absorb(name: str, config_name: str,
                cell: Dict[str, SimStats]) -> None:
        ctx = app_context(name, blocks, workload_family)
        for scheme, stats in cell.items():
            results[name][(scheme, config_name)] = stats
            ctx._stats[(scheme, config_name)] = stats

    spool = None if backend == "inline" \
        else tempfile.mkdtemp(prefix="repro-telemetry-spool-")
    if engine == "batch":
        # The batch engine amortizes the cycle loop across configs of one
        # trace, so the task axis flips: one task per app x scheme cell
        # covering every config still missing it (the engine handles
        # per-config inline fallbacks internally).
        grouped: Dict[Tuple[str, str], List[CpuConfig]] = {}
        for name, config, missing in todo:
            for scheme in missing:
                grouped.setdefault((name, scheme), []).append(config)
        tasks = [
            TaskSpec(
                id=f"{name}|{scheme}|{_BATCH_TAG}",
                fn=_batch_cell_task,
                args=(name, blocks, scheme, tuple(batch_configs),
                      workload_family),
                kwargs={"spool_dir": spool, "capture_telemetry": True},
                inline_kwargs={"capture_telemetry": False},
            )
            for (name, scheme), batch_configs in grouped.items()
        ]
    else:
        tasks = [
            TaskSpec(
                id=f"{name}|{config.name}",
                fn=_cell_task,
                args=(name, blocks, missing, config,
                      None if engine == "inline" else engine,
                      workload_family),
                kwargs={"spool_dir": spool, "capture_telemetry": True},
                inline_kwargs={"capture_telemetry": False},
            )
            for name, config, missing in todo
        ]
    exec_obj = EXECUTORS.create(
        backend, jobs=workers, policy=RetryPolicy.from_env(),
    )
    task_results: List[TaskResult] = []
    try:
        for task in tasks:
            exec_obj.submit(task)
        if backend == "inline":
            task_results = exec_obj.drain()
        else:
            with telemetry.phase("run_apps.parallel"):
                task_results = exec_obj.drain()
    finally:
        exec_obj.shutdown()
        if spool is not None:
            # Keep spooled snapshots only for cells that completed
            # cleanly on their first out-of-process attempt.  Any cell
            # that failed, retried, or quarantined re-records (or
            # discards) its telemetry elsewhere; merging its crashed
            # attempts' partial spools would double-count the cell.
            clean = {
                tuple(r.task_id.split("|", 1)) for r in task_results
                if r.ok and len(r.attempts) == 1 and not r.quarantined
            }
            # Task ids are "<app>|<config>" or "<app>|<scheme>|batch";
            # one split mirrors the spool tags for both shapes.
            every = {tuple(t.id.split("|", 1)) for t in tasks}
            _drain_spool(spool, skip=every - clean)

    batch_suffix = f"|{_BATCH_TAG}"
    for result in task_results:
        if result.ok:
            name, tag, cell, snap = result.value
            if snap is not None:
                telemetry.merge_snapshot(snap)
            if tag.endswith(batch_suffix):
                # Batched cell: tag is "<scheme>|batch" and the payload
                # maps config names (not schemes) to stats.
                scheme = tag[: -len(batch_suffix)]
                ctx = app_context(name, blocks, workload_family)
                for config_name, stats in cell.items():
                    results[name][(scheme, config_name)] = stats
                    ctx._stats[(scheme, config_name)] = stats
            else:
                _absorb(name, tag, cell)

    _last_report = DispatchReport(
        executor=EXECUTORS.identity(backend),
        workers=workers,
        results=task_results,
        faults=os.environ.get(ENV_FAULTS, "").strip() or None,
    )
    failures = [r for r in task_results if not r.ok]
    if failures:
        failures[0].raise_error()
    return results


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (speedups are ratios)."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Minimal fixed-width table renderer used by every figure module."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
