"""Fidelity scoreboard: the paper's shape claims, checked on figure
results.

Each predicate reads a figure module's result and reports the measured
value beside the paper's target.  The scoreboard only reports; nothing
here feeds back into the model.  The model is unvalidated against
hardware: the reference is the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class Shape:
    name: str
    passed: bool
    measured: str
    target: str


def fig03_fetch_share(groups) -> Shape:
    """Fig 3a: mobile fetch share of critical-instruction time > SPEC."""
    share = {g.group: g.stage_fractions["fetch"] for g in groups}
    spec = max(v for k, v in share.items() if k != "mobile")
    mobile = share["mobile"]
    return Shape("fig03a.mobile_fetch_gt_spec", mobile > spec,
                 f"mobile {100 * mobile:.1f}% vs SPEC max {100 * spec:.1f}%",
                 "mobile ~40% > SPEC <5%")


def fig08_approaches(result) -> Shape:
    """Fig 8: 0 < Approach 1 (branch switch) < Approach 2 (CDP)."""
    one, two = result.mean_branch_pct, result.mean_cdp_pct
    return Shape("fig08.approach1_between", 0 < one < two,
                 f"A1 {one:+.2f}% A2 {two:+.2f}%",
                 "0 < A1 (~+3%) < A2")


def fig10_critic_beats_hoist(result) -> Shape:
    """Fig 10a: CritIC > Hoist."""
    hoist, critic = result.mean_hoist_pct, result.mean_critic_pct
    return Shape("fig10a.critic_gt_hoist", critic > hoist,
                 f"CritIC {critic:+.2f}% Hoist {hoist:+.2f}%",
                 "CritIC 12.65% > Hoist 2.5%")


def fig12a_peak(rows) -> Shape:
    """Fig 12a: speedup vs exact chain length peaks at length 5."""
    best = max(rows, key=lambda r: r.speedup_pct)
    return Shape("fig12a.peak_at_5", best.length == 5,
                 f"peak at {best.length} ({best.speedup_pct:+.2f}%)",
                 "peak at 5")


def fig12b_monotone(rows) -> Shape:
    """Fig 12b: speedup is monotone (non-decreasing) in coverage."""
    ordered = sorted(rows, key=lambda r: r.profiled_fraction)
    values = [r.speedup_pct for r in ordered]
    monotone = all(a <= b for a, b in zip(values, values[1:]))
    return Shape("fig12b.monotone", monotone,
                 " ".join(f"{100 * r.profiled_fraction:.0f}%:"
                          f"{r.speedup_pct:+.2f}%" for r in ordered),
                 "non-decreasing (~10% at 33%, ~15% at 100%)")


def fig13_ordering(result, schemes: Sequence[str]) -> Shape:
    """Fig 13a: OPP16 < CritIC < OPP16+CritIC."""
    mean = dict(zip(schemes, result.mean_speedups_pct))
    opp, critic, both = mean["opp16"], mean["critic"], mean["opp16_critic"]
    return Shape("fig13a.opp16_lt_critic_lt_both", opp < critic < both,
                 f"OPP16 {opp:+.2f}% CritIC {critic:+.2f}% "
                 f"both {both:+.2f}%",
                 "OPP16 6% < CritIC < OPP16+CritIC 16%")


def scoreboard(fig03, fig08, fig10, fig12a, fig12b, fig13,
               fig13_schemes: Sequence[str]) -> List[Shape]:
    return [
        fig03_fetch_share(fig03),
        fig08_approaches(fig08),
        fig10_critic_beats_hoist(fig10),
        fig13_ordering(fig13, fig13_schemes),
        fig12a_peak(fig12a),
        fig12b_monotone(fig12b),
    ]


def format_scoreboard(shapes: List[Shape]) -> List[str]:
    return [f"shape {'PASS' if s.passed else 'FAIL'} {s.name}: "
            f"measured {s.measured}; paper {s.target}" for s in shapes]
