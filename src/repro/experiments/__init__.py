"""Experiment harness: one module per paper figure/table.

Each ``figNN`` module exposes ``run(...)`` returning structured results and
a ``format_*`` helper that renders the same rows/series the paper reports.
``repro.cpu.config.format_table1`` and ``repro.workloads.format_table2``
cover Tables I and II.

Importing the package imports nothing else.  ``from repro.experiments
import fig11`` imports one figure module, and the runner names below
(``app_context``, ``SCHEMES``, ...) import :mod:`repro.experiments.runner`
on first access.  Two import-order traps are avoided this way:

* every figure module imports :mod:`repro.experiments.sweep`, and
  importing that before ``python -m repro.experiments.sweep`` runs it
  makes runpy warn;
* the scheme registry's provider, :mod:`repro.experiments.schemes`, lives
  in this package, and the runner reads that registry at import time, so
  a runner imported while the provider loads would see no schemes.
"""

_RUNNER_NAMES = (
    "AppContext",
    "DEFAULT_WALK_BLOCKS",
    "SCHEMES",
    "app_context",
    "clear_cache",
    "default_jobs",
    "format_table",
    "geometric_mean",
    "run_apps",
)

__all__ = list(_RUNNER_NAMES) + [
    "fig01",
    "fig03",
    "fig05",
    "fig08",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
]


def __getattr__(name):
    if name in _RUNNER_NAMES:
        from repro.experiments import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
