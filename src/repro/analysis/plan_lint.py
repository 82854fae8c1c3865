"""Static linter for :class:`~repro.core.plans.BulkDeletePlan` DAGs.

The paper's vertical plans carry hard structural invariants that are
cheap to verify *before* the executor burns simulated I/O on them:

* unique indexes are scheduled before the base table so their
  constraint can come back on-line early (§3.1.3),
* the RID sort may be skipped only when the driving index is clustered
  — the paper's "interesting order" argument — or when a table scan
  produces the RID list in physical order already,
* every B-tree index of the table is covered exactly once (a skipped
  index would leave dangling entries; a doubled one wastes a sweep),
* an in-memory hash ``bd`` must actually fit ``db.memory_bytes``
  (Figure 4's "particularly attractive if the hash table really fits"),
* hash indexes never appear as vertical steps (§5: they are maintained
  record-at-a-time), and off-line indexes cannot be plan targets —
  their updates are owned by a side-file until they quiesce
  (:mod:`repro.txn.sidefile`).

Each invariant is one registered rule; :func:`lint_plan` runs them all
and returns structured :class:`~repro.analysis.findings.Finding`
objects.  ``repro.core.executor.execute_plan`` rejects plans with
ERROR findings (``validate=True``), and EXPLAIN appends the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.retention.policy import RetentionPlan
    from repro.shard.planning import ShardedDeletePlan

from repro.analysis.findings import Finding, Severity
from repro.catalog.catalog import IndexInfo, TableInfo
from repro.catalog.database import Database
from repro.core.operator import build_dag
from repro.core.plans import BdMethod, BdPredicate, BulkDeletePlan, StepPlan
from repro.errors import PlanningError
from repro.parallel import CONTENTION_MODES
from repro.query.hashtable import BYTES_PER_SET_ENTRY


@dataclass
class PlanContext:
    """Everything a plan rule may inspect.

    ``db``/``table`` are optional: purely structural rules run on a
    bare plan, catalog-aware rules (uniqueness, clustering, memory
    budget, index state) silently skip when no database is supplied.
    """

    plan: BulkDeletePlan
    db: Optional[Database] = None
    table: Optional[TableInfo] = None
    #: Set by :func:`lint_sharded_plan` for the shard-level pass; the
    #: shard rules no-op when it is ``None`` (plain unsharded lint).
    shard_plan: Optional["ShardedDeletePlan"] = None
    #: Set by :func:`lint_retention_plan` for the retention-coverage
    #: pass; the retention rules no-op when it is ``None``.
    retention_plan: Optional["RetentionPlan"] = None

    def index(self, name: str) -> Optional[IndexInfo]:
        if self.table is None or name not in self.table.indexes:
            return None
        return self.table.indexes[name]

    @property
    def is_horizontal(self) -> bool:
        steps = self.plan.steps
        return (
            len(steps) == 1
            and steps[0].is_table
            and steps[0].method is BdMethod.NESTED_LOOPS
        )

    def rid_hash_fits(self) -> Optional[bool]:
        """Would a RID hash set of the delete list fit?  ``None`` when
        the plan does not record the delete-list size or no budget is
        known."""
        if self.db is None or self.plan.n_deletes is None:
            return None
        return (
            self.plan.n_deletes * BYTES_PER_SET_ENTRY
            <= self.db.memory_bytes
        )


PlanRule = Callable[[PlanContext], Iterator[Finding]]

#: rule id -> (rule function, one-line description for the catalogue)
PLAN_RULES: Dict[str, "RegisteredRule"] = {}


@dataclass(frozen=True)
class RegisteredRule:
    rule_id: str
    description: str
    check: PlanRule


def plan_rule(
    rule_id: str, description: str
) -> Callable[[PlanRule], PlanRule]:
    """Register one plan-invariant rule under ``rule_id``."""

    def decorator(func: PlanRule) -> PlanRule:
        if rule_id in PLAN_RULES:
            raise ValueError(f"duplicate plan rule {rule_id}")
        PLAN_RULES[rule_id] = RegisteredRule(rule_id, description, func)
        return func

    return decorator


def _step_node(step: StepPlan, plan: BulkDeletePlan) -> str:
    name = plan.table_name if step.is_table else step.target
    return f"bd[{step.method.value}/{step.predicate.value}] {name}"


# ---------------------------------------------------------------------------
# structural rules (no catalog needed)
# ---------------------------------------------------------------------------
@plan_rule(
    "plan/table-step",
    "a plan must delete from the base table exactly once",
)
def _rule_table_step(ctx: PlanContext) -> Iterator[Finding]:
    table_steps = [s for s in ctx.plan.steps if s.is_table]
    if len(table_steps) != 1:
        yield Finding(
            "plan/table-step",
            Severity.ERROR,
            ctx.plan.table_name,
            f"plan has {len(table_steps)} base-table steps; exactly one "
            "bd over the table is required (§2.1)",
        )


@plan_rule(
    "plan/driving-index-first",
    "the driving index's bd must exist and come first (it produces the "
    "RID list every later step consumes)",
)
def _rule_driving_first(ctx: PlanContext) -> Iterator[Finding]:
    plan = ctx.plan
    if plan.driving_index is None or ctx.is_horizontal:
        return
    matches = [s for s in plan.steps if s.target == plan.driving_index]
    if not matches:
        yield Finding(
            "plan/driving-index-first",
            Severity.ERROR,
            plan.driving_index,
            f"driving index {plan.driving_index} has no bd step; nothing "
            "produces the RID list",
        )
        return
    if plan.steps[0].target != plan.driving_index:
        yield Finding(
            "plan/driving-index-first",
            Severity.ERROR,
            _step_node(plan.steps[0], plan),
            f"step 1 targets {plan.steps[0].target!r} but the driving "
            f"index {plan.driving_index} must run first to produce the "
            "RID list",
        )
    driving = matches[0]
    if driving.predicate is not BdPredicate.KEY:
        yield Finding(
            "plan/driving-index-first",
            Severity.ERROR,
            _step_node(driving, plan),
            "the driving index is probed by delete *keys* (sorted D), "
            f"not by {driving.predicate.value}",
        )


@plan_rule(
    "plan/clustered-skip-sort",
    "the RID sort may be skipped only for a clustered driving index "
    "(interesting order) or a table scan",
)
def _rule_skip_sort(ctx: PlanContext) -> Iterator[Finding]:
    plan = ctx.plan
    if ctx.is_horizontal:
        return
    if plan.driving_index is None:
        # A table scan emits RIDs in physical order; sorting them is
        # harmless but pointless.
        if plan.sort_rid_list:
            yield Finding(
                "plan/clustered-skip-sort",
                Severity.WARNING,
                plan.table_name,
                "table scan already yields RIDs in physical order; the "
                "RID sort is wasted work",
            )
        return
    index = ctx.index(plan.driving_index)
    if index is None:
        return  # catalog unavailable; plan/coverage reports unknown names
    if not plan.sort_rid_list and not index.clustered:
        yield Finding(
            "plan/clustered-skip-sort",
            Severity.ERROR,
            plan.driving_index,
            f"sort_rid_list=False but driving index {index.name} is not "
            "clustered: its RID list is in key order, and an unsorted "
            "heap sweep degenerates to random I/O (§2.1 interesting "
            "order)",
        )
    if plan.sort_rid_list and index.clustered:
        yield Finding(
            "plan/clustered-skip-sort",
            Severity.WARNING,
            plan.driving_index,
            f"driving index {index.name} is clustered; the RID list "
            "inherits physical order and the sort can be skipped",
        )


@plan_rule(
    "plan/nested-loops-vertical-mix",
    "nested-loops is the horizontal path; it cannot appear inside a "
    "vertical plan",
)
def _rule_nested_loops(ctx: PlanContext) -> Iterator[Finding]:
    plan = ctx.plan
    if ctx.is_horizontal:
        return
    for step in plan.steps:
        if step.method is BdMethod.NESTED_LOOPS:
            yield Finding(
                "plan/nested-loops-vertical-mix",
                Severity.ERROR,
                _step_node(step, plan),
                "nested-loops bd inside a multi-step vertical plan; "
                "horizontal plans are a single base-table step executed "
                "by repro.core.traditional",
            )


@plan_rule(
    "plan/pre-table-rid-probe",
    "steps scheduled before the base table are RID probes into the "
    "delete list's hash set",
)
def _rule_pre_table(ctx: PlanContext) -> Iterator[Finding]:
    plan = ctx.plan
    if ctx.is_horizontal:
        return
    for step in plan.steps_before_table():
        if step.target == plan.driving_index:
            continue
        if step.predicate is not BdPredicate.RID:
            yield Finding(
                "plan/pre-table-rid-probe",
                Severity.ERROR,
                _step_node(step, plan),
                "before the table is swept no deleted row exists to "
                "project keys from; pre-table index steps must probe "
                "by RID",
            )


@plan_rule(
    "plan/dag-shape",
    "the rendered operator DAG contains one bd node per step",
)
def _rule_dag_shape(ctx: PlanContext) -> Iterator[Finding]:
    plan = ctx.plan
    if ctx.is_horizontal:
        return
    try:
        root = build_dag(plan)
    except (PlanningError, StopIteration) as exc:
        yield Finding(
            "plan/dag-shape",
            Severity.ERROR,
            plan.table_name,
            f"operator DAG cannot be built from this plan: {exc}",
        )
        return
    bd_nodes = [n for n in root.walk() if n.label.startswith("bd[")]
    if len(bd_nodes) != len(plan.steps):
        yield Finding(
            "plan/dag-shape",
            Severity.ERROR,
            plan.table_name,
            f"plan has {len(plan.steps)} steps but its DAG renders "
            f"{len(bd_nodes)} bd operators; the step list and the "
            "figure-style DAG disagree",
        )


@plan_rule(
    "plan/parallel-lane-safety",
    "concurrent lanes execute disjoint structures: no structure may "
    "appear twice inside one parallel region, and the lane "
    "configuration itself must be valid",
)
def _rule_parallel_lane_safety(ctx: PlanContext) -> Iterator[Finding]:
    plan = ctx.plan
    if plan.lanes < 1:
        yield Finding(
            "plan/parallel-lane-safety",
            Severity.ERROR,
            plan.table_name,
            f"lanes={plan.lanes}; a plan needs at least one lane",
        )
        return
    if plan.contention not in CONTENTION_MODES:
        yield Finding(
            "plan/parallel-lane-safety",
            Severity.ERROR,
            plan.table_name,
            f"unknown contention mode {plan.contention!r}; expected one "
            f"of {CONTENTION_MODES}",
        )
    if plan.lanes == 1 or ctx.is_horizontal:
        return
    # The executor runs two barrier-to-barrier regions; lanes within a
    # region run concurrently, so a structure targeted twice in the
    # same region would be mutated by two lanes at once.
    region1 = [
        plan.table_name if s.is_table else s.target
        for s in plan.steps_before_table()
        if s.target != plan.driving_index
    ] + [plan.table_name]
    region2 = [s.target for s in plan.steps_after_table()]
    width = 1
    for region_name, targets in (
        ("pre-table", region1),
        ("index-maintenance", region2),
    ):
        width = max(width, len(targets))
        counts: Dict[str, int] = {}
        for target in targets:
            counts[target] = counts.get(target, 0) + 1
        for target, count in sorted(counts.items()):
            if count > 1:
                yield Finding(
                    "plan/parallel-lane-safety",
                    Severity.ERROR,
                    target,
                    f"structure {target} appears {count} times in the "
                    f"{region_name} parallel region; concurrent lanes "
                    "must not share a mutable structure",
                )
    if plan.lanes > width:
        yield Finding(
            "plan/parallel-lane-safety",
            Severity.WARNING,
            plan.table_name,
            f"{plan.lanes} lanes but the widest parallel region has "
            f"only {width} branch(es); the extra lanes stay idle",
        )


# ---------------------------------------------------------------------------
# shard-level rules (run by lint_sharded_plan; no-ops otherwise)
# ---------------------------------------------------------------------------
@plan_rule(
    "plan/shard-coverage",
    "every delete key of a sharded plan is routed to exactly one "
    "fragment, inside that fragment's shard range, and concurrent "
    "fragments target distinct shards",
)
def _rule_shard_coverage(ctx: PlanContext) -> Iterator[Finding]:
    shard_plan = ctx.shard_plan
    if shard_plan is None:
        return
    shard_map = shard_plan.shard_map
    seen: Dict[int, int] = {}
    for frag in shard_plan.fragments:
        node = f"shard[{frag.shard_id}] {frag.table_name}"
        for key in frag.keys:
            if not shard_map.covers(frag.shard_id, key):
                yield Finding(
                    "plan/shard-coverage",
                    Severity.ERROR,
                    node,
                    f"key {key} is routed to shard {frag.shard_id} "
                    f"{shard_map.describe(frag.shard_id)} but lies "
                    "outside that range; the fragment would sweep the "
                    "wrong structures",
                )
            elif key in seen:
                yield Finding(
                    "plan/shard-coverage",
                    Severity.ERROR,
                    node,
                    f"key {key} appears in fragments of shard "
                    f"{seen[key]} and shard {frag.shard_id}; a key "
                    "must be routed exactly once",
                )
            else:
                seen[key] = frag.shard_id
        if ctx.table is not None and ctx.table.is_sharded:
            expected = ctx.table.shard(frag.shard_id).name
            if frag.table_name != expected:
                yield Finding(
                    "plan/shard-coverage",
                    Severity.ERROR,
                    node,
                    f"fragment targets {frag.table_name!r} but shard "
                    f"{frag.shard_id} of {shard_plan.table_name} is "
                    f"{expected!r}",
                )
    targets: Dict[str, int] = {}
    for frag in shard_plan.fragments:
        if frag.is_parallel:
            targets[frag.table_name] = targets.get(frag.table_name, 0) + 1
    for target, count in sorted(targets.items()):
        if count > 1:
            yield Finding(
                "plan/shard-coverage",
                Severity.ERROR,
                target,
                f"{count} parallel fragments target shard table "
                f"{target}; concurrent lanes must not share a mutable "
                "structure (serialize or merge the fragments)",
            )


# ---------------------------------------------------------------------------
# catalog-aware rules
# ---------------------------------------------------------------------------
@plan_rule(
    "plan/exactly-once-coverage",
    "every B-tree index of the table is deleted from exactly once; "
    "hash indexes never appear as vertical steps",
)
def _rule_coverage(ctx: PlanContext) -> Iterator[Finding]:
    plan, table = ctx.plan, ctx.table
    if table is None:
        return
    counts: Dict[str, int] = {}
    for step in plan.index_steps():
        counts[step.target] = counts.get(step.target, 0) + 1
    for name, count in counts.items():
        index = ctx.index(name)
        if index is None:
            yield Finding(
                "plan/exactly-once-coverage",
                Severity.ERROR,
                name,
                f"plan step targets unknown index {name!r} on table "
                f"{table.name}",
            )
        elif not index.is_btree:
            yield Finding(
                "plan/exactly-once-coverage",
                Severity.ERROR,
                name,
                f"{name} is a hash index: vertical bd applies to "
                "B-trees only; hash indexes are maintained "
                "record-at-a-time (§5)",
            )
        elif count > 1:
            yield Finding(
                "plan/exactly-once-coverage",
                Severity.ERROR,
                name,
                f"index {name} is deleted from {count} times; the "
                "second sweep would find (and charge for) nothing",
            )
    if ctx.is_horizontal:
        return  # the horizontal executor maintains every index per record
    for index in table.btree_indexes():
        if index.name not in counts:
            yield Finding(
                "plan/exactly-once-coverage",
                Severity.ERROR,
                index.name,
                f"index {index.name} is never processed: its entries "
                "for the deleted rows would dangle",
            )


@plan_rule(
    "plan/unique-index-first",
    "unique indexes are processed before the base table so their "
    "constraint can come back on-line early (§3.1.3)",
)
def _rule_unique_first(ctx: PlanContext) -> Iterator[Finding]:
    plan, table = ctx.plan, ctx.table
    if table is None or ctx.is_horizontal:
        return
    fits = ctx.rid_hash_fits()
    for step in plan.steps_after_table():
        index = ctx.index(step.target)
        if index is None or not index.unique or not index.is_btree:
            continue
        if index.name == plan.driving_index:
            continue
        if fits is False:
            # Legal fallback: the RID hash the pre-table probe needs
            # does not fit, so the unique index waits for projections.
            yield Finding(
                "plan/unique-index-first",
                Severity.WARNING,
                _step_node(step, plan),
                f"unique index {index.name} is processed after the "
                "table (RID hash set exceeds the memory budget); its "
                "uniqueness constraint stays off-line for the whole "
                "sweep",
            )
        else:
            yield Finding(
                "plan/unique-index-first",
                Severity.ERROR,
                _step_node(step, plan),
                f"unique index {index.name} is scheduled after the base "
                "table although a RID hash set fits in memory; §3.1.3 "
                "orders unique indexes first so their constraint "
                "re-enables early",
            )


@plan_rule(
    "plan/hash-memory-budget",
    "an in-memory hash bd must fit db.memory_bytes; otherwise the "
    "plan must range-partition (Figure 5)",
)
def _rule_hash_budget(ctx: PlanContext) -> Iterator[Finding]:
    plan = ctx.plan
    fits = ctx.rid_hash_fits()
    if fits is None or fits:
        return
    assert ctx.db is not None and plan.n_deletes is not None
    need = plan.n_deletes * BYTES_PER_SET_ENTRY
    for step in plan.steps:
        if step.method is BdMethod.HASH:
            yield Finding(
                "plan/hash-memory-budget",
                Severity.ERROR,
                _step_node(step, plan),
                f"hash bd needs ~{need} bytes for {plan.n_deletes} RIDs "
                f"but the memory budget is {ctx.db.memory_bytes}; use "
                "partitioned-hash (Figure 5) or sort-merge",
            )


@plan_rule(
    "plan/offline-index",
    "off-line indexes are owned by a side-file drain; they cannot be "
    "bulk-delete targets until they quiesce",
)
def _rule_offline(ctx: PlanContext) -> Iterator[Finding]:
    plan, table = ctx.plan, ctx.table
    if table is None:
        return
    targets = {s.target for s in plan.index_steps()}
    if not ctx.is_horizontal:
        targets |= {ix.name for ix in table.btree_indexes()}
    for name in sorted(targets):
        index = ctx.index(name)
        if index is not None and not index.is_online:
            yield Finding(
                "plan/offline-index",
                Severity.ERROR,
                name,
                f"index {name} is off-line: another bulk operation owns "
                "it and concurrent changes are being captured in its "
                "side-file (§3.1.1); plan after it drains and "
                "re-enables",
            )


@plan_rule(
    "plan/horizontal-needs-index",
    "a horizontal plan probes a B-tree index on the delete column per "
    "key; without one the engine cannot run it",
)
def _rule_horizontal_index(ctx: PlanContext) -> Iterator[Finding]:
    plan, table = ctx.plan, ctx.table
    if table is None or not ctx.is_horizontal or table.indexes_on(plan.column):
        return
    yield Finding(
        "plan/horizontal-needs-index",
        Severity.ERROR,
        _step_node(plan.table_step(), plan),
        f"record-at-a-time delete needs a single-column B-tree index on "
        f"{plan.table_name}.{plan.column} to find each key's rows; plan "
        "vertically (a table scan drives the RID list)",
    )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def lint_plan(
    plan: BulkDeletePlan,
    db: Optional[Database] = None,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run every registered rule (or the named subset) over ``plan``.

    ``db`` unlocks the catalog-aware rules; without it only the
    structural invariants are checked.  Findings come back ordered by
    severity (errors first), then rule id.
    """
    table: Optional[TableInfo] = None
    if db is not None and db.catalog.has_table(plan.table_name):
        table = db.table(plan.table_name)
    ctx = PlanContext(plan=plan, db=db, table=table)
    selected = (
        list(PLAN_RULES) if rules is None else
        [r for r in rules if r in PLAN_RULES]
    )
    findings: List[Finding] = []
    for rule_id in selected:
        findings.extend(PLAN_RULES[rule_id].check(ctx))
    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
    findings.sort(key=lambda f: (order[f.severity], f.rule_id, f.node))
    return findings


def lint_sharded_plan(
    shard_plan: "ShardedDeletePlan",
    db: Optional[Database] = None,
) -> List[Finding]:
    """Lint a sharded plan: each fragment's core plan, then the
    shard-level routing invariants (``plan/shard-coverage``).

    Fragment plans go through the full :func:`lint_plan` rule set with
    catalog context (each against its own physical shard table); the
    shard pass runs once over the whole fragment list.
    """
    findings: List[Finding] = []
    for frag in shard_plan.fragments:
        findings.extend(lint_plan(frag.plan, db))
    table: Optional[TableInfo] = None
    if db is not None and db.catalog.has_table(shard_plan.table_name):
        table = db.table(shard_plan.table_name)
    anchor = (
        shard_plan.fragments[0].plan
        if shard_plan.fragments
        else BulkDeletePlan(
            table_name=shard_plan.table_name,
            column=shard_plan.column,
            driving_index=None,
        )
    )
    ctx = PlanContext(
        plan=anchor, db=db, table=table, shard_plan=shard_plan
    )
    findings.extend(PLAN_RULES["plan/shard-coverage"].check(ctx))
    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
    findings.sort(key=lambda f: (order[f.severity], f.rule_id, f.node))
    return findings


# ---------------------------------------------------------------------------
# retention-policy rules (repro.retention)
# ---------------------------------------------------------------------------
@plan_rule(
    "plan/retention-coverage",
    "every table FK-reachable from a retention policy's root is covered "
    "by exactly one DAG node, and RESTRICT-guarded tables are never "
    "touched",
)
def _rule_retention_coverage(ctx: PlanContext) -> Iterator[Finding]:
    retention_plan = ctx.retention_plan
    if retention_plan is None:
        return
    policy = retention_plan.policy.name
    counts: Dict[str, int] = {}
    for node in retention_plan.nodes:
        counts[node.table] = counts.get(node.table, 0) + 1
    for table_name in retention_plan.reachable:
        node = f"retention[{policy}] {table_name}"
        count = counts.get(table_name, 0)
        if count == 0:
            yield Finding(
                "plan/retention-coverage",
                Severity.ERROR,
                node,
                f"table {table_name} is FK-reachable from the policy "
                "root but no DAG node covers it; its referencing rows "
                "would survive the erasure",
            )
        elif count > 1:
            yield Finding(
                "plan/retention-coverage",
                Severity.ERROR,
                node,
                f"{count} DAG nodes target {table_name}; coverage must "
                "be exactly once (merge the edges into one node)",
            )
    reachable = set(retention_plan.reachable)
    restricted = set(retention_plan.restricted)
    for plan_node in retention_plan.nodes:
        node = f"retention[{policy}] {plan_node.table}"
        if plan_node.table in restricted:
            yield Finding(
                "plan/retention-coverage",
                Severity.ERROR,
                node,
                f"node {plan_node.describe()!r} targets RESTRICT-guarded "
                f"table {plan_node.table}; the constraint forbids "
                "touching it",
            )
        elif plan_node.table not in reachable:
            yield Finding(
                "plan/retention-coverage",
                Severity.ERROR,
                node,
                f"node {plan_node.describe()!r} targets a table the "
                "policy cannot reach over FK edges; the compiler must "
                "not invent work",
            )


def lint_retention_plan(
    retention_plan: "RetentionPlan",
    db: Optional[Database] = None,
) -> List[Finding]:
    """Lint a compiled retention plan: each heap delete node's vertical
    plan, then the policy-level ``plan/retention-coverage`` invariants.

    Node plans go through the full :func:`lint_plan` rule set with
    catalog context; LSM and SET NULL nodes carry no vertical DAG and
    are covered by the policy-level pass alone.
    """
    findings: List[Finding] = []
    if db is not None:
        from repro.core.planner import choose_plan

        for node in retention_plan.nodes:
            if node.action != "delete" or not node.keys:
                continue
            if db.table(node.table).lsm is not None:
                continue
            findings.extend(lint_plan(
                choose_plan(db, node.table, node.column, len(node.keys)),
                db,
            ))
    table: Optional[TableInfo] = None
    root = retention_plan.policy.table
    if db is not None and db.catalog.has_table(root):
        table = db.table(root)
    anchor = BulkDeletePlan(
        table_name=root,
        column=retention_plan.policy.column,
        driving_index=None,
    )
    ctx = PlanContext(
        plan=anchor, db=db, table=table, retention_plan=retention_plan
    )
    findings.extend(PLAN_RULES["plan/retention-coverage"].check(ctx))
    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
    findings.sort(key=lambda f: (order[f.severity], f.rule_id, f.node))
    return findings
