"""Whole-program effect inference for the repro engine.

The pipeline (each stage a module):

1. :mod:`~repro.analysis.effects.callgraph` — parse ``src/repro`` and
   build a class-aware call graph, recording ``LaneTask`` dispatch
   sites along the way.
2. :mod:`~repro.analysis.effects.lattice` — seed per-function
   intrinsic effects (primitive table + syntactic patterns) and
   propagate them to a fixpoint through sanctioned barriers.
3. :mod:`~repro.analysis.effects.contracts` — evaluate the layering
   contract table, reporting frontier violations with witness chains.
4. :mod:`~repro.analysis.effects.lanesafety` — verify nothing
   dispatched through the lane scheduler mutates shared state.

:func:`analyze_effects` runs all four and applies the checked-in
suppression :mod:`~repro.analysis.effects.baseline`; it is what the
``repro effects`` CLI and the CI gate call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.effects.baseline import (
    BASELINE,
    BaselineEntry,
    is_baselined,
    unused_entries,
)
from repro.analysis.effects.callgraph import CallGraph, build_callgraph
from repro.analysis.effects.contracts import (
    EFFECT_RULES,
    check_contracts,
)
from repro.analysis.effects.lanesafety import (
    LANE_RULE,
    OPAQUE_RULE,
    check_lane_safety,
)
from repro.analysis.effects.lattice import (
    EFFECTS,
    propagate,
    seed_effects,
)
from repro.analysis.code_lint import default_root
from repro.analysis.findings import Finding, Severity

#: Emitted (as an error) when a baseline entry suppresses nothing —
#: suppressions must not outlive the code they excused.
STALE_BASELINE_RULE = "effect/stale-baseline"

__all__ = [
    "BASELINE",
    "BaselineEntry",
    "CallGraph",
    "EFFECTS",
    "EFFECT_RULES",
    "EffectsReport",
    "LANE_RULE",
    "OPAQUE_RULE",
    "STALE_BASELINE_RULE",
    "analyze_effects",
    "build_effect_graph",
]


@dataclass
class EffectsReport:
    """Everything one engine run produced."""

    graph: CallGraph
    #: Actionable findings (contract + lane safety + stale baseline).
    findings: List[Finding] = field(default_factory=list)
    #: Violations the baseline filtered out (kept for JSON output).
    suppressed: List[Finding] = field(default_factory=list)


def build_effect_graph(
    root: Path, package: Optional[str] = None
) -> CallGraph:
    """Call graph with seeded + propagated effect sets (no checks)."""
    graph = build_callgraph(root, package)
    seed_effects(graph, root)
    propagate(graph)
    return graph


def analyze_effects(
    root: Path,
    package: Optional[str] = None,
    baseline: Optional[Sequence[BaselineEntry]] = None,
) -> EffectsReport:
    """Run the full pipeline over the package at ``root``.

    ``baseline`` defaults to the checked-in :data:`BASELINE` when
    ``root`` is the repro package and to an empty one otherwise: the
    baseline names functions of the repro tree, so holding a foreign
    root to it would only yield stale-entry errors.
    """
    if baseline is None:
        baseline = BASELINE if root == default_root() else ()
    graph = build_effect_graph(root, package)
    report = EffectsReport(graph=graph)
    matched: List[Tuple[str, str]] = []
    for violation in check_contracts(graph):
        finding = violation.to_finding(graph)
        pair = (violation.entry.rule_id, violation.function.qualname)
        if is_baselined(*pair, baseline=baseline):
            matched.append(pair)
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    for finding in check_lane_safety(graph):
        pair = (finding.rule_id, str(finding.node))
        if is_baselined(*pair, baseline=baseline):
            matched.append(pair)
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    for entry in unused_entries(matched, baseline):
        report.findings.append(
            Finding(
                rule_id=STALE_BASELINE_RULE,
                severity=Severity.ERROR,
                node=entry.qualname,
                message=(
                    f"baseline entry for {entry.rule_id!r} matched no "
                    "violation; remove it"
                ),
            )
        )
    return report
