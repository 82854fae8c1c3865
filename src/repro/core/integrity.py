"""Referential integrity for bulk deletes (paper §2.1/§2.2).

"Furthermore, referential integrity constraints from other tables must
be checked. ... integrity constraints can be processed more efficiently
using a vertical approach ... We propose to check integrity constraints
in such a vertical way as early as possible and before deleting records
from the table and the indices so that no work needs to be undone if an
integrity constraint fails."

``ConstraintRegistry`` records FOREIGN KEY constraints; a
:func:`cascade_bulk_delete` on a parent table then:

1. finds, *set-oriented and read-only*, every child row referencing a
   to-be-deleted key (one sequential probe of the child's index when it
   has one, one scan otherwise) — **before anything is modified**,
2. for ``RESTRICT`` constraints: aborts with
   :class:`IntegrityViolationError` if any reference exists (nothing to
   undo),
3. for ``CASCADE`` constraints: bulk-deletes the referencing child rows
   first (recursively — children of children cascade too), then the
   parent,
4. for ``SET NULL`` constraints: null-outs the referencing child keys
   (to :data:`SET_NULL_VALUE` — the fixed-layout INT columns have no
   NULL, so ``0`` is the reserved orphan marker) before the parent
   dies, via :class:`~repro.txn.coordinator.UpdateRouter` when one is
   supplied so mid-delete secondary-index state stays consistent, and
   via the set-oriented bulk UPDATE executor otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.catalog.database import Database
from repro.core.bulk_ops import collect_index_matches
from repro.core.executor import (
    BulkDeleteOptions,
    BulkDeleteResult,
    bulk_delete,
)
from repro.errors import CatalogError, IntegrityViolationError, PlanningError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.bulk_update import BulkUpdateResult
    from repro.lsm.engine import LsmDeleteResult
    from repro.txn.coordinator import UpdateRouter
    from repro.txn.transactions import Transaction

#: The value a SET NULL constraint writes into orphaned child keys.
#: The engine's fixed-layout INT columns have no NULL representation,
#: so ``0`` is reserved as the orphan marker; real keys must be
#: non-zero for SET NULL semantics to be unambiguous.
SET_NULL_VALUE = 0


class OnDelete(enum.Enum):
    """What happens to referencing child rows when a parent row dies."""

    RESTRICT = "restrict"
    CASCADE = "cascade"
    SET_NULL = "set-null"


@dataclass(frozen=True)
class ForeignKey:
    """``child.child_column`` REFERENCES ``parent.parent_column``."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str
    on_delete: OnDelete = OnDelete.RESTRICT

    def describe(self) -> str:
        return (
            f"{self.child_table}.{self.child_column} -> "
            f"{self.parent_table}.{self.parent_column} "
            f"ON DELETE {self.on_delete.value.upper()}"
        )


class ConstraintRegistry:
    """All declared foreign keys of one database."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self._foreign_keys: List[ForeignKey] = []

    def add_foreign_key(
        self,
        child_table: str,
        child_column: str,
        parent_table: str,
        parent_column: str,
        on_delete: OnDelete = OnDelete.RESTRICT,
    ) -> ForeignKey:
        """Declare a constraint (tables and columns must exist)."""
        child = self.db.table(child_table)
        parent = self.db.table(parent_table)
        if not child.schema.has_column(child_column):
            raise CatalogError(
                f"{child_table} has no column {child_column}"
            )
        if not parent.schema.has_column(parent_column):
            raise CatalogError(
                f"{parent_table} has no column {parent_column}"
            )
        fk = ForeignKey(
            child_table, child_column, parent_table, parent_column,
            on_delete,
        )
        self._foreign_keys.append(fk)
        return fk

    def referencing(self, parent_table: str, parent_column: str) -> List[ForeignKey]:
        return [
            fk
            for fk in self._foreign_keys
            if fk.parent_table == parent_table
            and fk.parent_column == parent_column
        ]

    def referencing_table(self, parent_table: str) -> List[ForeignKey]:
        """Every constraint whose parent is ``parent_table`` (any column)."""
        return [
            fk for fk in self._foreign_keys
            if fk.parent_table == parent_table
        ]

    def all_constraints(self) -> List[ForeignKey]:
        return list(self._foreign_keys)


@dataclass
class IntegrityReport:
    """What the constraint phase of a guarded bulk delete did."""

    checked: List[str] = field(default_factory=list)
    cascaded: List[Union[BulkDeleteResult, "LsmDeleteResult"]] = field(
        default_factory=list
    )
    #: One ``(constraint description, rows nulled)`` per SET NULL
    #: constraint that had referencing rows.
    nulled: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def cascade_deleted(self) -> int:
        return sum(r.records_deleted for r in self.cascaded)

    @property
    def records_nulled(self) -> int:
        return sum(count for _, count in self.nulled)


def _referenced_values(
    db: Database,
    table_name: str,
    column: str,
    keys: Sequence[int],
    needed_columns: Set[str],
) -> Dict[str, List[int]]:
    """Values of ``needed_columns`` among the rows about to be deleted.

    For the delete column itself the delete list *is* the value set;
    other referenced columns require reading the victim rows (one
    sequential scan, still before any modification).
    """
    out: Dict[str, List[int]] = {column: sorted(set(keys))}
    others = needed_columns - {column}
    if not others:
        return out
    table = db.table(table_name)
    wanted = set(keys)
    column_idx = table.schema.column_index(column)
    collected: Dict[str, Set[int]] = {c: set() for c in others}

    def _collect(values: Sequence[object]) -> None:
        if values[column_idx] in wanted:
            for other in others:
                collected[other].add(
                    values[table.schema.column_index(other)]  # type: ignore[arg-type]
                )

    if table.lsm is not None:
        for _, payload in table.lsm.scan():
            db.disk.charge_cpu_records(1)
            _collect(table.serializer.unpack(payload))
    else:
        for _, records in table.heap.scan_pages():
            db.disk.charge_cpu_records(len(records))
            for _, payload in records:
                _collect(table.serializer.unpack(payload))
    for other, found in collected.items():
        out[other] = sorted(found)
    return out


def find_referencing_keys(
    db: Database, fk: ForeignKey, parent_keys: Sequence[int]
) -> List[int]:
    """Child-side keys (values of ``fk.child_column``) that reference
    any of ``parent_keys`` — found set-oriented and read-only.

    Engine-dispatched: an LSM child probes its own key column point
    lookups (or merge-scans for a non-key column) instead of the heap,
    which is empty for LSM tables.
    """
    child = db.table(fk.child_table)
    wanted = sorted(set(parent_keys))
    if child.lsm is not None:
        if fk.child_column == child.lsm_key_column:
            db.disk.charge_cpu_records(len(wanted))
            return [key for key in wanted if child.lsm.get(key) is not None]
        wanted_lsm = set(wanted)
        column_idx = child.schema.column_index(fk.child_column)
        found_lsm: Set[int] = set()
        for _, payload in child.lsm.scan():
            db.disk.charge_cpu_records(1)
            value = child.serializer.unpack(payload)[column_idx]
            if value in wanted_lsm:
                found_lsm.add(value)  # type: ignore[arg-type]
        return sorted(found_lsm)
    indexes = child.indexes_on(fk.child_column)
    if indexes:
        probe = collect_index_matches(indexes[0].tree, wanted, db.disk)
        return sorted({key for key, _ in probe.deleted})
    column_idx = child.schema.column_index(fk.child_column)
    wanted_set = set(wanted)
    found: Set[int] = set()
    for _, records in child.heap.scan_pages():
        db.disk.charge_cpu_records(len(records))
        for _, payload in records:
            value = child.serializer.unpack(payload)[column_idx]
            if value in wanted_set:
                found.add(value)  # type: ignore[arg-type]
    return sorted(found)


def set_null_referencing_rows(
    db: Database,
    fk: ForeignKey,
    keys: Sequence[int],
    router: Optional["UpdateRouter"] = None,
    txn: Optional["Transaction"] = None,
) -> int:
    """Null-out ``fk.child_column`` in every child row whose value is in
    ``keys``; returns the number of rows touched.

    With a ``router`` (and its transaction) each victim row is replaced
    through :class:`~repro.txn.coordinator.UpdateRouter` — delete plus
    re-insert of the nulled row — so off-line secondary indexes capture
    the change in their side-files and mid-delete index state stays
    consistent.  Without one, the set-oriented bulk UPDATE executor
    rewrites the heap in one pass and merges every affected index.
    """
    from repro.core.bulk_update import bulk_update

    child = db.table(fk.child_table)
    if child.lsm is not None:
        raise PlanningError(
            f"SET NULL against LSM table {fk.child_table} is "
            "unsupported: LSM rows are keyed by "
            f"{child.lsm_key_column!r} and nulling the key would "
            "collide every orphan on one key"
        )
    wanted = set(keys) - {SET_NULL_VALUE}
    if not wanted:
        return 0
    if router is not None:
        if txn is None:
            raise PlanningError(
                "SET NULL through an UpdateRouter needs the caller's "
                "transaction"
            )
        column_idx = child.schema.column_index(fk.child_column)
        victims = [
            (rid, values)
            for rid, values in db.scan(fk.child_table)
            if values[column_idx] in wanted
        ]
        for rid, values in victims:
            nulled = list(values)
            nulled[column_idx] = SET_NULL_VALUE
            router.delete(txn, fk.child_table, rid)
            router.insert(txn, fk.child_table, nulled)
        return len(victims)
    result = bulk_update(
        db,
        fk.child_table,
        fk.child_column,
        lambda values: SET_NULL_VALUE,
        where_column=fk.child_column,
        where_keys=sorted(wanted),
    )
    return result.records_updated


def cascade_bulk_delete(
    db: Database,
    constraints: ConstraintRegistry,
    table_name: str,
    column: str,
    keys: Sequence[int],
    options: Optional[BulkDeleteOptions] = None,
    router: Optional["UpdateRouter"] = None,
    txn: Optional["Transaction"] = None,
    _visited: Optional[Set[str]] = None,
) -> Tuple[Union[BulkDeleteResult, "LsmDeleteResult"], IntegrityReport]:
    """Bulk delete with full FK enforcement, constraints checked first.

    Raises :class:`IntegrityViolationError` before any modification when
    a RESTRICT constraint is referenced; CASCADE constraints delete the
    child rows first (recursively); SET NULL constraints null-out the
    referencing child keys (see :func:`set_null_referencing_rows` — a
    ``router``/``txn`` pair routes the null-outs so off-line index
    state stays consistent).  Cycles among CASCADE constraints are
    rejected.  The parent delete is engine-dispatched: heap tables run
    the vertical executor, LSM tables compile tombstones.
    """
    _visited = _visited if _visited is not None else set()
    if table_name in _visited:
        raise PlanningError(
            f"cascade cycle involving table {table_name}"
        )
    report = IntegrityReport()
    # Phase 1: all checks before any modification (paper §2.2).
    # A constraint may reference a column other than the delete column;
    # the victims' values of every referenced column are resolved with
    # one read-only scan, shared by all such constraints.
    fks = constraints.referencing_table(table_name)
    referenced_values = _referenced_values(
        db, table_name, column, keys,
        {fk.parent_column for fk in fks},
    )
    cascade_work: List[Tuple[ForeignKey, List[int]]] = []
    null_work: List[Tuple[ForeignKey, List[int]]] = []
    for fk in fks:
        referencing = find_referencing_keys(
            db, fk, referenced_values[fk.parent_column]
        )
        report.checked.append(fk.describe())
        if not referencing:
            continue
        if fk.on_delete is OnDelete.RESTRICT:
            raise IntegrityViolationError(
                f"{len(referencing)} value(s) of {fk.child_table}."
                f"{fk.child_column} still reference keys being deleted "
                f"({fk.describe()})"
            )
        if fk.on_delete is OnDelete.SET_NULL:
            null_work.append((fk, referencing))
        else:
            cascade_work.append((fk, referencing))
    # Phase 2: children first (no dangling references at any point).
    for fk, referencing in cascade_work:
        child_result, child_report = cascade_bulk_delete(
            db,
            constraints,
            fk.child_table,
            fk.child_column,
            referencing,
            options=options,
            router=router,
            txn=txn,
            _visited=_visited | {table_name},
        )
        report.cascaded.append(child_result)
        report.cascaded.extend(child_report.cascaded)
        report.checked.extend(child_report.checked)
        report.nulled.extend(child_report.nulled)
    for fk, referencing in null_work:
        rows = set_null_referencing_rows(
            db, fk, referencing, router=router, txn=txn
        )
        report.nulled.append((fk.describe(), rows))
    # Phase 3: the parent itself; bulk_delete picks the table's layout.
    return bulk_delete(db, table_name, column, keys, options=options), report

