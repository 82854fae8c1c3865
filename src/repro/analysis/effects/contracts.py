"""The layering contract: which package may reach which effect.

Each :class:`ContractEntry` names a package scope (module-path prefix
under the root package), the effects functions in that scope must not
*reach* (transitively, through any number of helpers), and exemption
prefixes for the modules that legitimately implement the mechanism.
The table re-expresses the four direct-call confinement lint rules of
:mod:`repro.analysis.code_lint` as reachability properties — so a
one-line wrapper in an allowed package no longer launders the call —
and adds contracts the line lint cannot express at all (read-only
analysis/obs, pure planner estimators).

Reporting is **frontier-based**: a violation is charged to the
function where the forbidden effect *enters* the contract scope — the
in-scope function none of whose in-scope callees already carry the
effect.  Without this, one leaked effect would flag its entire caller
tree.  Every finding carries the shortest witness call chain from the
frontier function to the effect's introduction site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.effects.callgraph import CallGraph, FunctionNode
from repro.analysis.effects.lattice import render_chain, witness_chain
from repro.analysis.findings import Finding, Severity


@dataclass(frozen=True)
class ContractEntry:
    """One row of the layering contract table."""

    rule_id: str
    #: Module-path prefix (relative to the root package) the entry
    #: governs; ``""`` means the whole package.
    scope: str
    #: Effects no function in scope may reach.
    forbid: FrozenSet[str]
    #: Module-path prefixes excused from the entry (the implementing
    #: layer itself, sanctioned delivery surfaces).
    exempt: Tuple[str, ...] = ()
    description: str = ""
    severity: Severity = Severity.ERROR


#: The contract table.  Scopes/exemptions are module paths relative to
#: the root package (``repro``), matched as dotted prefixes.
EFFECT_RULES: Dict[str, ContractEntry] = {
    entry.rule_id: entry
    for entry in (
        ContractEntry(
            rule_id="effect/analysis-pure",
            scope="analysis",
            forbid=frozenset(
                {"disk.write", "wal.append", "catalog.mutate"}
            ),
            description=(
                "The analysis layer is a read-only observer: nothing "
                "importable from repro.analysis may reach a page "
                "write, a WAL append, or a catalog mutation."
            ),
        ),
        ContractEntry(
            rule_id="effect/obs-passive",
            scope="obs",
            forbid=frozenset(
                {"disk.write", "wal.append", "catalog.mutate"}
            ),
            description=(
                "Observability is passive: tracing/metrics/explain "
                "code must not reach writes to data structures it "
                "reports on."
            ),
        ),
        ContractEntry(
            rule_id="effect/planner-estimates-pure",
            scope="core.planner",
            forbid=frozenset(
                {
                    "clock.advance",
                    "clock.rewind",
                    "disk.read",
                    "disk.write",
                    "wal.append",
                }
            ),
            description=(
                "Planner cost estimation is arithmetic over statistics "
                "already collected: estimators must not reach the "
                "simulated clock or any I/O (estimates would then "
                "depend on — and disturb — execution state)."
            ),
        ),
        ContractEntry(
            rule_id="effect/shard-routing-pure",
            scope="shard",
            forbid=frozenset(
                {
                    "clock.advance",
                    "clock.rewind",
                    "disk.read",
                    "disk.write",
                    "wal.append",
                }
            ),
            exempt=("shard.executor", "shard.faults"),
            description=(
                "Shard routing and hot-range planning are arithmetic "
                "over the shard map and access counters: splitting a "
                "delete list must not reach the simulated clock or any "
                "I/O.  Only the executor (which runs the fragments) "
                "and the crash sweep (which drives recoverable "
                "statements) touch the machine."
            ),
        ),
        ContractEntry(
            rule_id="effect/crash-confinement",
            scope="",
            forbid=frozenset({"crash.raise"}),
            exempt=("faults", "storage.disk", "recovery.wal"),
            description=(
                "Reachability form of code/crash-outside-faults: only "
                "the injector layer and the sanctioned delivery points "
                "(page I/O, WAL append) may reach a SimulatedCrash "
                "raise.  A helper wrapper around the raise no longer "
                "hides it."
            ),
        ),
        ContractEntry(
            rule_id="effect/clock-rewind-confinement",
            scope="",
            forbid=frozenset({"clock.rewind"}),
            exempt=("parallel", "storage.disk"),
            description=(
                "Reachability form of code/clock-rewind: only the lane "
                "scheduler (and SimClock itself) may reposition the "
                "simulated clock backwards."
            ),
        ),
        ContractEntry(
            rule_id="effect/media-error-confinement",
            scope="",
            forbid=frozenset({"media_error.raise"}),
            exempt=("media", "storage"),
            description=(
                "Reachability form of code/media-error-outside-media: "
                "media faults originate at the device and terminate in "
                "the retry/repair layer; nothing above the buffer pool "
                "may reach an unabsorbed raise of the media family."
            ),
        ),
        ContractEntry(
            rule_id="effect/lsm-compaction-confined",
            scope="",
            forbid=frozenset({"lsm.compact"}),
            exempt=("lsm",),
            description=(
                "Compaction scheduling is confined to repro/lsm/: the "
                "rest of the engine triggers it only through the "
                "tree's public write and maintenance surface (put/"
                "delete/delete_range, flush_memtable, compact_all, "
                "delete_aware_compactions, lsm_bulk_delete), which "
                "absorb the effect.  Reaching compact_once any other "
                "way would let operators hand-pick runs and bypass "
                "the FADE policy and its accounting."
            ),
        ),
        ContractEntry(
            rule_id="effect/no-global-rng",
            scope="",
            forbid=frozenset({"rng"}),
            description=(
                "Reachability form of code/global-random: all "
                "randomness flows through seeded random.Random "
                "instances; module-global random.* calls anywhere "
                "break run-to-run determinism."
            ),
        ),
        ContractEntry(
            rule_id="effect/wall-clock-confinement",
            scope="",
            forbid=frozenset({"wall_clock"}),
            description=(
                "Reachability form of code/wall-clock: simulated "
                "results must not depend on host time."
            ),
        ),
        ContractEntry(
            rule_id="effect/metrics-confinement",
            scope="",
            forbid=frozenset({"metrics.mutate"}),
            exempt=("storage", "obs"),
            description=(
                "Reachability form of code/adhoc-metrics: counters are "
                "mutated by their owning layer (storage) or the "
                "metrics registry (obs), never ad hoc from engine "
                "code."
            ),
        ),
    )
}


def _module_path(graph: CallGraph, node: FunctionNode) -> str:
    """Module path relative to the root package (``core.executor``)."""
    prefix = graph.package + "."
    if node.module == graph.package:
        return ""
    if node.module.startswith(prefix):
        return node.module[len(prefix):]
    return node.module


def _prefix_match(path: str, prefix: str) -> bool:
    if prefix == "":
        return True
    return path == prefix or path.startswith(prefix + ".")


def entry_applies(
    graph: CallGraph, entry: ContractEntry, node: FunctionNode
) -> bool:
    """``node`` is in the entry's scope and not exempted."""
    path = _module_path(graph, node)
    if not _prefix_match(path, entry.scope):
        return False
    return not any(_prefix_match(path, ex) for ex in entry.exempt)


def _has_in_scope_carrier(
    graph: CallGraph,
    entry: ContractEntry,
    node: FunctionNode,
    effect: str,
) -> bool:
    """Some in-scope, non-exempt callee of ``node`` already carries the
    effect — so ``node`` is not the frontier and is not reported."""
    for callee_qual in graph.callees(node.qualname):
        callee = graph.functions.get(callee_qual)
        if callee is None or callee_qual == node.qualname:
            continue
        if effect in callee.effects and entry_applies(
            graph, entry, callee
        ):
            return True  # an in-scope callee is closer to the source
    return False


@dataclass
class ContractViolation:
    """One (function, entry, effect) contract breach with its chain."""

    entry: ContractEntry
    function: FunctionNode
    effect: str
    chain: List[str] = field(default_factory=list)

    def to_finding(self, graph: CallGraph) -> Finding:
        rendered = render_chain(graph, self.chain, self.effect)
        return Finding(
            rule_id=self.entry.rule_id,
            severity=self.entry.severity,
            node=self.function.qualname,
            message=(
                f"reaches forbidden effect {self.effect!r}: {rendered}"
            ),
            file=self.function.file,
            line=self.function.line,
        )


def check_contracts(graph: CallGraph) -> List[ContractViolation]:
    """Evaluate every table entry against propagated effect sets.

    Call after :func:`repro.analysis.effects.lattice.propagate`.
    Results are sorted by (rule, file, line) for stable output.
    """
    violations: List[ContractViolation] = []
    for entry in EFFECT_RULES.values():
        for node in graph.functions.values():
            if not entry_applies(graph, entry, node):
                continue
            for effect in sorted(entry.forbid & node.effects):
                if _has_in_scope_carrier(graph, entry, node, effect):
                    continue
                chain = witness_chain(graph, node.qualname, effect)
                violations.append(
                    ContractViolation(
                        entry=entry,
                        function=node,
                        effect=effect,
                        chain=chain,
                    )
                )
    violations.sort(
        key=lambda v: (
            v.entry.rule_id,
            v.function.file,
            v.function.line,
            v.effect,
        )
    )
    return violations
