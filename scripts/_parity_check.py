"""Ad-hoc parity harness: batch vs inline over the 56-cell golden grid.

Not part of the test suite (tests/test_batch_engine.py covers this); kept
as a standalone driver for kernel debugging:

    PYTHONPATH=src python scripts/_parity_check.py
"""

import os
import sys
import tempfile

os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-parity-")

from repro.cpu.batch import last_batch_report, simulate_batch
from repro.cpu.pipeline import simulate
from repro.experiments.runner import app_context

APP = "Music"
WALK_BLOCKS = 140
SCHEMES = ("baseline", "hoist", "critic", "critic_ideal", "branch",
           "opp16", "compress", "opp16_critic")
CONFIGS = ("google-tablet", "2xFD", "4xI$", "EFetch", "PerfectBr",
           "BackendPrio", "AllHW")


def config_by_name(name):
    from repro.cpu.config import GOOGLE_TABLET, HARDWARE_VARIANTS
    if name == "google-tablet":
        return GOOGLE_TABLET
    return HARDWARE_VARIANTS[name]()


def main():
    ctx = app_context(APP, WALK_BLOCKS)
    configs = [config_by_name(name) for name in CONFIGS]
    bad = 0
    for scheme in SCHEMES:
        trace = ctx.scheme_trace(scheme)
        batch = simulate_batch(trace, configs)
        report = last_batch_report()
        for config, bstats in zip(configs, batch):
            istats = simulate(trace, config)
            b, i = bstats.to_dict(), istats.to_dict()
            if b != i:
                bad += 1
                print(f"MISMATCH {scheme}|{config.name}")
                for key in sorted(set(b) | set(i)):
                    if b.get(key) != i.get(key):
                        print(f"  {key}: batch={b.get(key)!r} "
                              f"inline={i.get(key)!r}")
        print(f"{scheme}: kernel={report['kernel']} "
              f"fast={report['fast']}/{report['width']} "
              f"rounds={report['rounds']} "
              f"fallbacks={report['fallbacks']}")
    if bad:
        print(f"FAILED: {bad} mismatching cells")
        sys.exit(1)
    print("OK: all 56 cells bit-identical")


if __name__ == "__main__":
    main()
