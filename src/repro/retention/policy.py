"""Retention policies and the deterministic policy compiler.

A :class:`RetentionPolicy` states *what* must be erased — "every row of
the root table whose key is one of these subjects" (GDPR-style
subject erasure) or "every row older than this cutoff" (age-based
expiry).  :func:`compile_policy` turns one policy into a
:class:`RetentionPlan`: a multi-table cascading bulk-delete DAG in
topological (children-first) order over the FK registry, with one
engine-dispatched per-table plan per node — heap/B+-tree tables get a
vertical :class:`~repro.core.plans.BulkDeletePlan` via ``choose_plan``,
LSM tables a tombstone :class:`~repro.lsm.planning.LsmDeletePlan` —
so both storage engines can appear in a single policy.

Compilation is *read-only* and **deterministic**: the same policy
against the same catalog produces a byte-identical DAG and EXPLAIN
text across runs and hash seeds (FKs in registration order, keys
sorted, no set-iteration order anywhere).  RESTRICT violations are
raised here, before anything durable happens, so a restricted policy
aborts cleanly with nothing to undo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.database import Database
from repro.core.integrity import (
    ConstraintRegistry,
    OnDelete,
    SET_NULL_VALUE,
    find_referencing_keys,
)
from repro.core.planner import choose_plan
from repro.errors import IntegrityViolationError, PlanningError

ACTION_DELETE = "delete"
ACTION_SET_NULL = "set-null"


@dataclass(frozen=True)
class RetentionPolicy:
    """One erasure obligation over a root table.

    ``subject_keys`` names the victims directly (subject erasure);
    ``cutoff`` instead selects every row whose ``column`` value is
    strictly below it (age expiry).  Exactly one of the two forms must
    be used.
    """

    name: str
    table: str
    column: str
    subject_keys: Tuple[int, ...] = ()
    cutoff: Optional[int] = None

    def __post_init__(self) -> None:
        if bool(self.subject_keys) == (self.cutoff is not None):
            raise PlanningError(
                f"policy {self.name}: give subject_keys or cutoff, "
                "not both and not neither"
            )

    @property
    def kind(self) -> str:
        return "subject" if self.cutoff is None else "age"

    def describe(self) -> str:
        if self.cutoff is None:
            return (
                f"policy {self.name}: erase {self.table} where "
                f"{self.column} in [{len(self.subject_keys)} subjects]"
            )
        return (
            f"policy {self.name}: expire {self.table} where "
            f"{self.column} < {self.cutoff}"
        )


@dataclass
class RetentionNode:
    """One bulk statement of the compiled DAG.

    ``keys`` are the values of ``column`` the statement targets;
    ``action`` is ``delete`` or ``set-null``; ``via`` records the FK
    edges that contributed keys (registration order, for EXPLAIN).
    """

    table: str
    column: str
    keys: Tuple[int, ...]
    action: str
    engine: str
    via: Tuple[str, ...] = ()
    plan_explain: str = ""

    def describe(self) -> str:
        return (
            f"{self.action} {self.table}.{self.column} "
            f"[{len(self.keys)} keys, {self.engine}]"
        )


@dataclass
class RetentionPlan:
    """The compiled, children-first DAG for one policy."""

    policy: RetentionPolicy
    nodes: List[RetentionNode] = field(default_factory=list)
    #: FK constraints checked during compilation, in check order.
    checked: List[str] = field(default_factory=list)
    #: Every table reachable from the root via CASCADE/SET NULL edges
    #: (root included), in first-reached order — the coverage set the
    #: ``plan/retention-coverage`` lint verifies against the nodes.
    reachable: List[str] = field(default_factory=list)
    #: Tables guarded by a (clean) RESTRICT edge: reachable, but the
    #: constraint forbids touching them — excluded from coverage.
    restricted: List[str] = field(default_factory=list)

    @property
    def root_keys(self) -> Tuple[int, ...]:
        for node in self.nodes:
            if node.table == self.policy.table:
                return node.keys
        return ()

    def explain(self) -> str:
        lines = [self.policy.describe()]
        lines.append(
            f"  reachable tables: {', '.join(self.reachable)}"
        )
        if self.restricted:
            lines.append(
                f"  restricted (untouched): {', '.join(self.restricted)}"
            )
        for check in self.checked:
            lines.append(f"  checked: {check}")
        for order, node in enumerate(self.nodes, start=1):
            lines.append(f"  {order}. {node.describe()}")
            for edge in node.via:
                lines.append(f"     via {edge}")
            for plan_line in node.plan_explain.splitlines():
                lines.append(f"     | {plan_line}")
        return "\n".join(lines)


def resolve_root_keys(db: Database, policy: RetentionPolicy) -> List[int]:
    """The root table's victim keys, resolved read-only.

    Subject policies return their subjects verbatim (the delete list
    *is* the value set, matching the FK checker); age policies scan the
    root table once — engine-agnostic via ``db.scan`` — collecting the
    distinct ``column`` values below the cutoff.
    """
    if policy.cutoff is None:
        return sorted(set(policy.subject_keys))
    table = db.table(policy.table)
    column_idx = table.schema.column_index(policy.column)
    found = set()
    for _, values in db.scan(policy.table):
        db.disk.charge_cpu_records(1)
        value = values[column_idx]
        if value < policy.cutoff:  # type: ignore[operator]
            found.add(value)
    return sorted(found)  # type: ignore[arg-type]


def _node_plan_explain(
    db: Database, table_name: str, column: str, keys: Sequence[int],
    action: str,
) -> str:
    """Engine-dispatched per-node plan text (empty delete lists skip
    planning: the node exists only for coverage accounting)."""
    if action == ACTION_SET_NULL:
        return (
            f"SET NULL {table_name}.{column} -> {SET_NULL_VALUE} "
            f"for {len(keys)} referencing key(s) (bulk UPDATE, one "
            "heap pass + per-index merge)"
        )
    if not keys:
        return "empty delete list: nothing to execute"
    table = db.table(table_name)
    if table.lsm is not None:
        from repro.lsm.planning import choose_lsm_plan

        return choose_lsm_plan(db, table_name, column, list(keys)).explain()
    return choose_plan(db, table_name, column, len(keys)).explain()


def compile_policy(
    db: Database,
    registry: ConstraintRegistry,
    policy: RetentionPolicy,
) -> RetentionPlan:
    """Compile ``policy`` into a children-first :class:`RetentionPlan`.

    Walks the FK graph depth-first from the root (constraints in
    registration order), resolving each child's referencing keys
    read-only.  RESTRICT edges with live referencing rows raise
    :class:`IntegrityViolationError` *here* — compile time, nothing
    modified.  CASCADE edges recurse (children emitted before their
    parents); SET NULL edges emit a null-out node and stop.  A table
    reached along two edges gets one merged node (key union); cycles
    are rejected.
    """
    plan = RetentionPlan(policy=policy)
    table = db.table(policy.table)
    if table.lsm is not None and policy.column != table.lsm_key_column:
        raise PlanningError(
            f"policy {policy.name}: LSM root {policy.table} must be "
            f"targeted by its key column {table.lsm_key_column!r}"
        )
    root_keys = resolve_root_keys(db, policy)
    node_of: Dict[Tuple[str, str, str], RetentionNode] = {}

    def emit(
        table_name: str,
        column: str,
        keys: Sequence[int],
        action: str,
        via: Optional[str],
    ) -> None:
        slot = (table_name, column, action)
        existing = node_of.get(slot)
        if existing is not None:
            merged = sorted(set(existing.keys) | set(keys))
            existing.keys = tuple(merged)
            if via is not None:
                existing.via = existing.via + (via,)
            return
        node = RetentionNode(
            table=table_name,
            column=column,
            keys=tuple(sorted(set(keys))),
            action=action,
            engine=db.table(table_name).engine,
            via=(via,) if via is not None else (),
        )
        node_of[slot] = node
        plan.nodes.append(node)

    def reach(table_name: str) -> None:
        if table_name not in plan.reachable:
            plan.reachable.append(table_name)

    def walk(
        table_name: str,
        column: str,
        keys: List[int],
        via: Optional[str],
        path: Tuple[str, ...],
    ) -> None:
        if table_name in path:
            raise PlanningError(
                f"policy {policy.name}: cascade cycle involving table "
                f"{table_name}"
            )
        reach(table_name)
        for fk in registry.referencing_table(table_name):
            # Keys of the referenced parent column among the victims:
            # for the delete column the list is the value set itself;
            # other columns would need a victim-row read, which the
            # compiler restricts to keep resolution one probe per edge.
            if fk.parent_column != column:
                raise PlanningError(
                    f"policy {policy.name}: constraint {fk.describe()} "
                    f"references {fk.parent_table}.{fk.parent_column} "
                    f"but the policy deletes by {column}; retention "
                    "cascades must follow the delete column"
                )
            referencing = find_referencing_keys(db, fk, keys)
            plan.checked.append(fk.describe())
            if fk.on_delete is OnDelete.RESTRICT:
                if referencing:
                    raise IntegrityViolationError(
                        f"policy {policy.name}: {len(referencing)} "
                        f"value(s) of {fk.child_table}.{fk.child_column} "
                        f"still reference victims ({fk.describe()})"
                    )
                if fk.child_table not in plan.restricted:
                    plan.restricted.append(fk.child_table)
                continue
            if fk.on_delete is OnDelete.SET_NULL:
                reach(fk.child_table)
                emit(
                    fk.child_table, fk.child_column, referencing,
                    ACTION_SET_NULL, fk.describe(),
                )
                continue
            walk(
                fk.child_table, fk.child_column, referencing,
                fk.describe(), path + (table_name,),
            )
        emit(table_name, column, keys, ACTION_DELETE, via)

    walk(policy.table, policy.column, root_keys, None, ())
    for node in plan.nodes:
        node.plan_explain = _node_plan_explain(
            db, node.table, node.column, node.keys, node.action
        )
    return plan
