"""The concurrent bulk-delete protocol of Section 3.

The coordinator phases a vertical bulk delete so that concurrency comes
back as early as possible:

1. **Critical phase** (table X-locked, every index off-line): the
   driving index produces the RID list, unique secondary indexes are
   processed by RID probe (unique-first, §3.1.3, so their constraint
   can be enforced again), and the base table is swept.
2. **Commit point**: the table lock is released and the processed
   indexes come back on-line.  Other transactions may now read and
   update R.
3. **Propagation phase**: the remaining (non-unique) indexes are
   processed one at a time while staying off-line.  Concurrent updates
   reach them through a per-index *side-file* (replayed and quiesced
   when the index is done, §3.1.1) or by *direct propagation* under
   latches with undeletable-entry marking (§3.1.2).

``UpdateRouter`` is what concurrent transactions call instead of
``Database.insert``/``delete_record`` while a coordinator is active: it
takes row locks, applies changes to the heap and the on-line indexes,
and routes changes to off-line indexes per the propagation mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.catalog import IndexInfo, TableInfo
from repro.catalog.database import Database
from repro.core.bulk_ops import BdResult
from repro.core.executor import BulkDeleteOptions
from repro.core.plans import BulkDeletePlan
from repro.core.stages import POST_TABLE, Pipe, Stage, vertical_stages
from repro.errors import (
    IndexOfflineError,
    TransactionError,
    UniqueViolationError,
)
from repro.storage.rid import RID
from repro.txn.locks import LockMode
from repro.txn.sidefile import SideFile, SideFileOp
from repro.txn.transactions import Transaction, TransactionManager

Entry = Tuple[int, int]


class PropagationMode(enum.Enum):
    """How concurrent updates reach off-line indexes (§3.1)."""

    SIDE_FILE = "side-file"
    DIRECT = "direct"


class Phase(enum.Enum):
    NOT_STARTED = "not-started"
    CRITICAL = "critical"
    PROPAGATION = "propagation"
    DONE = "done"


@dataclass
class CoordinatorReport:
    """What the coordinator did, per phase."""

    records_deleted: int = 0
    critical_steps: List[BdResult] = field(default_factory=list)
    propagation_steps: List[BdResult] = field(default_factory=list)
    side_file_applied: Dict[str, int] = field(default_factory=dict)
    undeletable_protected: int = 0


class BulkDeleteCoordinator:
    """Drives one concurrent bulk delete through the §3 protocol."""

    def __init__(
        self,
        db: Database,
        table_name: str,
        column: str,
        keys: Sequence[int],
        txn_manager: Optional[TransactionManager] = None,
        mode: PropagationMode = PropagationMode.SIDE_FILE,
        log: Optional[object] = None,  # WriteAheadLog for durable capture
    ) -> None:
        self.db = db
        self.log = log
        self.table_name = table_name
        self.column = column
        self.keys = list(keys)
        self.tm = txn_manager or TransactionManager()
        self.mode = mode
        self.phase = Phase.NOT_STARTED
        self.report = CoordinatorReport()
        self.side_files: Dict[str, SideFile] = {}
        self.undeletable: Dict[str, Set[Entry]] = {}
        self._txn: Optional[Transaction] = None
        #: Post-table stage per off-line index (the propagation phase).
        self._propagation: Dict[str, Stage] = {}
        self._rid_list: List[int] = []

    # ------------------------------------------------------------------
    # phase 1: critical section
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """X-lock the table and take every index off-line."""
        if self.phase is not Phase.NOT_STARTED:
            raise TransactionError(f"coordinator already {self.phase.value}")
        self._txn = self.tm.begin()
        self.tm.locks.lock_table(self._txn.txn_id, self.table_name, LockMode.X)
        table = self.db.table(self.table_name)
        if table.hash_indexes():
            raise TransactionError(
                "the concurrent bulk-delete protocol covers B-tree "
                "indexes only; drop or rebuild hash indexes separately"
            )
        for index in table.indexes.values():
            index.set_offline()
            if not index.unique and index.column != self.column:
                self.side_files[index.name] = SideFile(
                    index.name, disk=self.db.disk, log=self.log
                )
                self.undeletable[index.name] = set()
        self.phase = Phase.CRITICAL

    def process_critical_phase(self) -> None:
        """Driving index → unique indexes (RID probe) → base table:
        the plan's stages through the table."""
        if self.phase is not Phase.CRITICAL:
            raise TransactionError("begin() must run first")
        table = self.db.table(self.table_name)
        pipe = Pipe(
            self.db, table, self._plan(table), self.keys,
            BulkDeleteOptions(),
        )
        for stage in vertical_stages(pipe):
            if stage.role == POST_TABLE:
                self._propagation[stage.target] = stage
                continue
            step_result = stage.apply()
            if step_result is not None:
                self.report.critical_steps.append(step_result)
        self._rid_list = pipe.rid_list
        self.report.records_deleted = len(pipe.rows)

    def commit_critical(self) -> None:
        """Release the table; bring processed indexes back on-line."""
        if self.phase is not Phase.CRITICAL:
            raise TransactionError("critical phase is not active")
        table = self.db.table(self.table_name)
        assert self._txn is not None
        self.tm.commit(self._txn)
        self._txn = None
        for index in table.indexes.values():
            if index.name not in self.side_files:
                # Driving + unique indexes were fully processed.
                index.set_online()
        self.phase = Phase.PROPAGATION
        if not self.side_files:
            self.phase = Phase.DONE

    # ------------------------------------------------------------------
    # phase 2: propagation to the remaining indexes
    # ------------------------------------------------------------------
    def pending_indexes(self) -> List[str]:
        table = self.db.table(self.table_name)
        return [
            name
            for name in self.side_files
            if not table.index(name).is_online
        ]

    def process_index(self, index_name: str) -> BdResult:
        """Bulk-delete one off-line index, then bring it on-line.

        With side-files the captured updates are drained (quiesce at the
        tail); with direct propagation the tree is already current and
        the sweep just skips undeletable entries.
        """
        if self.phase is not Phase.PROPAGATION:
            raise TransactionError("not in the propagation phase")
        index = self.db.table(self.table_name).index(index_name)
        if index.is_online:
            raise TransactionError(f"index {index_name} is already on-line")
        stage = self._propagation[index_name]
        stage.undeletable = self.undeletable.get(index_name, set())
        self.report.undeletable_protected += len(stage.undeletable)
        bd = stage.apply()
        assert bd is not None
        self.report.propagation_steps.append(bd)
        if self.mode is PropagationMode.SIDE_FILE:
            applied, _ = self.side_files[index_name].drain(index.tree)
            self.report.side_file_applied[index_name] = applied
        self.undeletable.pop(index_name, None)
        index.set_online()
        if not self.pending_indexes():
            self.phase = Phase.DONE
        return bd

    def run_to_completion(self) -> CoordinatorReport:
        """Convenience: run every phase back to back (no concurrency)."""
        if self.phase is Phase.NOT_STARTED:
            self.begin()
        if self.phase is Phase.CRITICAL:
            self.process_critical_phase()
            self.commit_critical()
        for name in list(self.pending_indexes()):
            self.process_index(name)
        return self.report

    def _plan(self, table: TableInfo) -> BulkDeletePlan:
        """The §3 protocol as a vertical plan: the clustered (else the
        first) index on the delete column drives; unique indexes go
        before the table by RID probe (unique-first, §3.1.3); the
        side-file indexes follow it by sort/merge."""
        candidates = table.indexes_on(self.column)
        if not candidates:
            raise TransactionError(
                f"concurrent bulk delete needs an index on {self.column}"
            )
        driving = next(
            (ix for ix in candidates if ix.clustered), candidates[0]
        )
        return BulkDeletePlan.fixed(
            self.table_name,
            self.column,
            driving.name,
            probe=[
                ix.name
                for ix in table.indexes.values()
                if ix.unique and ix.name != driving.name
            ],
            sweep=list(self.side_files),
            sort_rid_list=not driving.clustered,
        )


class UpdateRouter:
    """Entry point for transactions running beside a coordinator.

    Inserts and deletes acquire row locks (conflicting with the
    coordinator's table X lock during the critical phase), then apply to
    the heap and the on-line indexes directly, and to off-line indexes
    per the coordinator's propagation mode.
    """

    def __init__(self, db: Database, coordinator: BulkDeleteCoordinator) -> None:
        self.db = db
        self.coordinator = coordinator
        self.tm = coordinator.tm

    def insert(
        self, txn: Transaction, table_name: str, values: Sequence[object]
    ) -> RID:
        table = self.db.table(table_name)
        self.tm.locks.lock_row(
            txn.txn_id, table_name, tuple(values[:1]), LockMode.X
        )
        # Uniqueness must be checked against *on-line* unique indexes —
        # that is exactly why the coordinator processes them first.
        for index in table.indexes.values():
            if index.unique:
                if not index.is_online:
                    raise IndexOfflineError(
                        f"unique index {index.name} is off-line; cannot "
                        "check the uniqueness constraint"
                    )
                key = index.key_for(tuple(values), table.schema)
                if index.tree.contains(key):
                    raise UniqueViolationError(
                        f"duplicate key {key} for {index.name}"
                    )
        payload = table.serializer.pack(values)
        rid = table.heap.insert(payload)
        txn.on_abort(lambda: table.heap.delete(rid))
        for index in table.indexes.values():
            key = index.key_for(tuple(values), table.schema)
            self._apply_index_insert(txn, index, key, rid)
        return rid

    def delete(self, txn: Transaction, table_name: str, rid: RID) -> None:
        table = self.db.table(table_name)
        self.tm.locks.lock_row(txn.txn_id, table_name, rid, LockMode.X)
        payload = table.heap.delete(rid)
        values = table.serializer.unpack(payload)
        txn.on_abort(lambda: table.heap.insert(payload))
        for index in table.indexes.values():
            key = index.key_for(values, table.schema)
            self._apply_index_delete(txn, index, key, rid)

    # ------------------------------------------------------------------
    def _apply_index_insert(
        self, txn: Transaction, index: IndexInfo, key: int, rid: RID
    ) -> None:
        packed = rid.pack()
        if index.is_online:
            index.tree.insert(key, packed)
            txn.on_abort(lambda: index.tree.delete(key, packed))
            return
        if self.coordinator.mode is PropagationMode.SIDE_FILE:
            side = self.coordinator.side_files[index.name]
            side.append(SideFileOp.INSERT, key, packed)
            return
        # Direct propagation: install now, mark undeletable (§3.1.2).
        index.tree.insert(key, packed)
        protected = self.coordinator.undeletable[index.name]
        protected.add((key, packed))
        # "An undeletable entry can be removed as part of rollback
        # processing for the transaction that inserted it."
        def _undo() -> None:
            index.tree.delete(key, packed)
            protected.discard((key, packed))

        txn.on_abort(_undo)

    def _apply_index_delete(
        self, txn: Transaction, index: IndexInfo, key: int, rid: RID
    ) -> None:
        packed = rid.pack()
        if index.is_online:
            index.tree.delete(key, packed)
            txn.on_abort(lambda: index.tree.insert(key, packed))
            return
        if self.coordinator.mode is PropagationMode.SIDE_FILE:
            self.coordinator.side_files[index.name].append(
                SideFileOp.DELETE, key, packed
            )
            return
        index.tree.delete(key, packed)
        self.coordinator.undeletable[index.name].discard((key, packed))
        txn.on_abort(lambda: index.tree.insert(key, packed))
