"""Cold-then-warm artifact cache smoke test, in fresh processes.

A cold pass computes one app's baseline and CritIC cells into an empty
cache directory; a warm pass in a new interpreter must then answer
everything from disk — stats and traces alike — with no miss and no
corrupt artifact, and every stored trace must be in the columnar v2
format.  CI's ``cache-smoke`` job runs this file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cache import SCHEMA_VERSION
from repro.trace.trace_io import COLUMNAR_HEADER

SRC = Path(__file__).resolve().parent.parent / "src"

PASS = """
import json
from repro import telemetry
from repro.cache import get_cache
from repro.experiments.runner import app_context

ctx = app_context("Angrybirds", 150)
schemes = ("baseline", "critic")
cycles = {s: ctx.stats(s).cycles for s in schemes}
instructions = {s: len(ctx.scheme_trace(s)) for s in schemes}
cache = get_cache()
print(json.dumps({"hits": cache.hits, "misses": cache.misses,
                  "counters": telemetry.counters(), "cycles": cycles,
                  "instructions": instructions}))
"""


def _run_pass(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", PASS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cold_then_warm_pass_hits_everything(tmp_path):
    cold = _run_pass(tmp_path)
    assert cold["misses"] > 0
    warm = _run_pass(tmp_path)
    assert warm["misses"] == 0, warm
    assert warm["hits"] >= 4, warm  # 2 stats + 2 traces
    corrupt = {k: v for k, v in warm["counters"].items()
               if k.startswith("cache.corrupt.")}
    assert corrupt == {}
    assert warm["cycles"] == cold["cycles"]
    assert warm["instructions"] == cold["instructions"]

    traces = sorted((tmp_path / f"v{SCHEMA_VERSION}" / "trace")
                    .rglob("*.trace"))
    assert len(traces) == 2
    for path in traces:
        with open(path) as handle:
            assert handle.readline() == COLUMNAR_HEADER + "\n", path
