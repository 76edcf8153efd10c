"""Correctness checks on the program's outputs.

A run whose outputs fail any check is reported ``correct: false`` and
the benchmark exits nonzero: a faster wrong answer is not a result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Iterable, List


class GateError(AssertionError):
    """An output of the program failed a correctness check."""


def check_stats(stats, where: str) -> None:
    """Every simulated cell must run to completion and commit work."""
    if stats.truncated:
        raise GateError(f"{where}: simulation truncated")
    if stats.instructions <= 0:
        raise GateError(f"{where}: zero instructions committed")


def diff_stats(expected, actual) -> List[str]:
    """Names of the SimStats fields that differ."""
    want, got = asdict(expected), asdict(actual)
    return sorted(k for k in want.keys() | got.keys()
                  if want.get(k) != got.get(k))


def require_equal(expected, actual, where: str) -> None:
    fields = diff_stats(expected, actual)
    if fields:
        raise GateError(f"{where}: SimStats differ in {', '.join(fields)}")


def digest(records: Iterable) -> str:
    """Order-independent SHA-256 over JSON-able records (the SimStats
    digest a pure performance change must leave unchanged)."""
    lines = sorted(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
