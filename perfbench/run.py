#!/usr/bin/env python3
"""Benchmark of the CritICs reproduction: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each exists):
``cold_sweep``, ``fig11_batch``, ``warm_figures`` (the three that
``BENCHMARK.json`` lists) and ``serve_warm``.

``--trace 0`` reports the end-to-end metrics: set-up time (the median
of several set-ups, each in a fresh process that imports the program,
builds the C batch kernel into its own directory and, where the
workload needs it, fills the cache and starts the server), then timed
passes for ``--seconds`` seconds (at least three), reported as means
over the passes.  ``--trace 1`` is a separate run that records
spans around each layer of the program (one worker, so every call lands
in a traced process) and reports per-layer self time, counts,
``unattributed_s`` and the tracing overhead.

Every run checks the program's outputs (:mod:`perfbench.gate`) and
prints, before the result, a SimStats or figure digest and the host
fingerprint.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is nonzero when a check fails or the program's source is
missing.

Isolation: inherited ``REPRO_*`` variables are cleared,
``REPRO_EVENTS=0`` is set, and every cache, kernel build and temporary
file lives under ``.perfbench/`` in the repository root, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import metrics  # noqa: E402

NAMES = ("cold_sweep", "fig11_batch", "warm_figures", "serve_warm")
#: The workloads BENCHMARK.json lists.  serve_warm runs on request but
#: is left out: on a shared 2-vCPU host its run-to-run spread of wall_s
#: and p99_ms over ten seeds (IQR/median 0.16-0.44) can exceed the 0.25
#: bound, and its per-layer metrics are measured on warm_figures too.
LISTED = NAMES[:3]
#: Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 3
#: Timed passes per run, at least (the run goes on for --seconds).
MIN_PASSES = 3
#: Wall budget of one run, all processes included.
RUN_BUDGET_S = 170.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="End-to-end and per-layer benchmark of the CritICs "
                    "reproduction.")
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--state", help=argparse.SUPPRESS)
    return parser


def isolated_env(work: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_EVENTS"] = "0"
    # Same set and dict iteration order in every run.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def host_fingerprint() -> Dict[str, str]:
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        cc = "none"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "none"
    return {"nproc": str(os.cpu_count()),
            "python": platform.python_version(),
            "cc": cc, "numpy": numpy_version}


# -- parent: set-ups, then one measuring child --------------------------------


def _spawn(args, mode: str, state: str, env: Dict[str, str],
           deadline: float):
    """Run one child; returns (seconds to its ``ready`` line, the rest
    of its stdout lines, exit code)."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--child", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--state", state]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    ready: Optional[float] = None
    lines: List[str] = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - started
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, lines, code


def end_to_end(setup_times: List[float], result: Dict) -> Dict[str, float]:
    """The end-to-end metrics of one run: means over its passes.

    Latency percentiles are taken within each pass, then averaged
    across passes.  A pass of ``serve_warm`` holds 1000 requests (10
    beyond its p99); the other workloads have one operation per pass (a
    sweep, a full figure regeneration), so their percentiles equal the
    pass time.  Means, not medians, because a 2-vCPU shared host runs
    in fast and slow phases lasting seconds: a mean weighs the phases
    by the time they took, while the median of a run's passes jumps
    from one phase to the other (with medians, the run-to-run spread of
    wall_s on fig11_batch and warm_figures was up to 1.4 times larger).
    """
    passes = result["passes"]
    ops = sum(len(p["latencies"]) for p in passes)
    seconds = sum(p["seconds"] for p in passes)

    def per_pass(q: float) -> float:
        return 1e3 * sum(metrics.percentile(p["latencies"], q)
                         for p in passes) / len(passes)

    return {
        "setup_s": metrics.median(setup_times),
        "wall_s": seconds / len(passes),
        "ops_per_s": ops / seconds,
        "p50_ms": per_pass(0.50),
        "p99_ms": per_pass(0.99),
        "sim_instr_per_s": sum(p["instructions"] for p in passes) / seconds,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_one(args) -> int:
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    env = isolated_env(work)
    deadline = time.monotonic() + RUN_BUDGET_S
    reps = 1 if args.trace else SETUP_REPS
    setup_times: List[float] = []
    try:
        for rep in range(reps):
            mode = "measure" if rep == reps - 1 else "setup"
            ready, lines, code = _spawn(args, mode,
                                        os.path.join(work, f"rep{rep}"),
                                        env, deadline)
            if ready is None or (code != 0 and mode == "setup"):
                print(f"perfbench: {args.workload} {mode} child failed "
                      f"(exit {code})", file=sys.stderr)
                return 1
            setup_times.append(ready)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {args.workload}: no result (exit {code})",
              file=sys.stderr)
        return 1
    for line in result.get("lines", []):
        print(f"{args.workload}: {line}")
    print(f"{args.workload}: host {json.dumps(host_fingerprint())}")
    print(f"{args.workload}: setup_s per set-up "
          + " ".join(f"{t:.3f}" for t in setup_times))
    passes = result.get("passes", [])
    print(f"{args.workload}: seconds per pass "
          + " ".join(f"{p['seconds']:.3f}" for p in passes))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if "gate" in result:
        print(f"{args.workload}: CORRECTNESS FAILURE: {result['gate']}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        values = result["layers"]
        table = metrics.PER_LAYER
    else:
        values = end_to_end(setup_times, result)
        table = metrics.END_TO_END
    print(json.dumps({"correct": code == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics.render(values, table)}))
    return 0 if code == 0 and failed == 0 else 1


# -- child: one set-up, then (measure mode) the timed passes ------------------


def _peak_rss_mb() -> float:
    import multiprocessing

    multiprocessing.active_children()  # reap finished workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _traced_layers(wl, out: Dict) -> Dict:
    from perfbench.tracing import layer_metrics

    result = wl.traced_pass()
    out["passes"] = [vars(p) for p in result.passes]
    layers = layer_metrics(result.spans, result.wall_s, result.cells)
    layers["tracing.overhead_frac"] = result.overhead_frac
    for name in ("dispatch.tasks", "dispatch.attempts", "dispatch.retries",
                 "dispatch.busy_frac", "fidelity.shapes_passed"):
        # No fan-out, or no figures, in this workload.
        layers[name] = result.extra.get(name, 0)
    return layers


def child(args) -> int:
    os.makedirs(args.state, exist_ok=True)
    os.environ["REPRO_BATCH_KERNEL_DIR"] = os.path.join(args.state, "kernel")
    from repro.cpu import _batchkernel

    from perfbench import gate
    from perfbench.workloads import WORKERS, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.state, bool(args.trace))
    _batchkernel.get_kernel()
    out: Dict = {"passes": []}
    try:
        wl.setup()
        print("ready", flush=True)
        if args.child == "setup":
            return 0
        if args.trace:
            out["layers"] = _traced_layers(wl, out)
        else:
            started = time.perf_counter()
            while (len(out["passes"]) < MIN_PASSES
                   or time.perf_counter() - started < args.seconds):
                out["passes"].append(vars(wl.run_pass(jobs=WORKERS)))
        out["lines"] = wl.check()
    except gate.GateError as err:
        out["gate"] = str(err)
    finally:
        wl.teardown()
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 1 if "gate" in out else 0



def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        return child(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: the program's source (src/repro) is missing",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in NAMES:
        status |= run_one(argparse.Namespace(**dict(vars(args),
                                                    workload=name)))
    return status


if __name__ == "__main__":
    sys.exit(main())
