"""The PDME browser (Fig. 2), as plain text.

"The sample screen shown indicates that for machine A/C Compressor
Motor 1, six condition reports from four different knowledge sources
(expert systems) have been received, some conflicting and some
reinforcing.  After these reports are processed by the Knowledge Fusion
component, the predictions of failure for each machine condition group
are shown at the bottom of the screen."

The renderer reads the PDME's report log (top half) and the KF engine
state (bottom half), exactly the two data sources the original screen
bound to.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.common.ids import ObjectId
from repro.common.units import SECONDS_PER_DAY
from repro.pdme.priorities import PriorityEntry

if TYPE_CHECKING:
    from repro.pdme.executive import PdmeExecutive

_RULE = "-" * 78


def _fmt_ttf(seconds: float) -> str:
    if math.isinf(seconds):
        return "—"
    days = seconds / SECONDS_PER_DAY
    if days >= 60:
        return f"{days / 30.0:.1f} mo"
    if days >= 14:
        return f"{days / 7.0:.1f} wk"
    return f"{days:.1f} d"


def render_machine_screen(
    pdme: PdmeExecutive,
    sensed_object_id: ObjectId,
    now: float | None = None,
) -> str:
    """The Fig. 2 screen for one machine.

    Top: every condition report received (source, condition, severity,
    belief).  Bottom: fused failure predictions per machine-condition
    group — beliefs, the group's "unknown" mass, and the fused
    time-to-failure where prognostics exist.
    """
    engine = pdme.engine
    try:
        name = pdme.model.get(sensed_object_id).name
    except Exception:
        name = sensed_object_id
    lines = [
        _RULE,
        f"MPROS Browser — {name} ({sensed_object_id})",
        _RULE,
        "Condition reports received:",
        f"  {'time':>8}  {'source':<10} {'condition':<32} {'sev':>5} {'bel':>5}",
    ]
    reports = pdme.router.reports_for(sensed_object_id)
    if not reports:
        lines.append("  (none)")
    for r in reports:
        lines.append(
            f"  {r.timestamp:>8.1f}  {r.knowledge_source_id:<10} "
            f"{r.machine_condition_id:<32} {r.severity:>5.2f} {r.belief:>5.2f}"
        )
    sources = {r.knowledge_source_id for r in reports}
    lines.append(
        f"  {len(reports)} report(s) from {len(sources)} knowledge source(s)"
    )
    lines.append(_RULE)
    lines.append("Fused failure predictions by condition group:")
    states = engine.diagnostic.states_for_object(sensed_object_id)
    if not states:
        lines.append("  (no fused state)")
    for state in sorted(states, key=lambda s: s.group_name):
        flavour = ""
        if state.report_count >= 2:
            flavour = (
                "  last report: conflicting (K="
                f"{state.conflict:.2f})" if state.conflict > 0.25
                else "  last report: reinforcing"
            )
        lines.append(
            f"  [{state.group_name}]  (unknown: {state.unknown:.2f}){flavour}"
        )
        for condition, belief in state.ranked():
            if belief <= 0.005:
                continue
            t = now if now is not None else max((r.timestamp for r in reports), default=0.0)
            ttf = engine.time_to_failure(
                sensed_object_id, condition, probability=0.5, now=t
            )
            lines.append(
                f"    {condition:<34} belief {belief:.2f}   TTF(p=0.5): {_fmt_ttf(ttf)}"
            )
    lines.append(_RULE)
    return "\n".join(lines)


def render_priority_list(entries: list[PriorityEntry], limit: int = 20) -> str:
    """The ship-wide prioritized maintenance list as text."""
    lines = [_RULE, "PDME prioritized maintenance list", _RULE]
    if not entries:
        lines.append("  (no suspect components)")
    for i, e in enumerate(entries[:limit], 1):
        lines.append(f"{i:>3}. {e.describe()}")
    lines.append(_RULE)
    return "\n".join(lines)
