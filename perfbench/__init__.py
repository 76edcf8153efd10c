"""End-to-end and per-layer benchmark of the CritICs reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 12 --trace 0

See ``perfbench/run.py`` for the workloads and the output contract.
"""
