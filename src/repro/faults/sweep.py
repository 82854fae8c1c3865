"""The heap-table crash sweep: §3.2's recovery claim as a scenario.

:func:`crash_point_sweep` hands the recoverable bulk delete of a
:class:`SweepScenario` to the sweep kernel
(:mod:`repro.faults.kernel`, which owns the oracle pass, the per-point
skeleton, the re-issue rule and the terminal-restart check).  What is
specific to this scenario lives here:

* the deterministic workload — table R (unique index on the driving
  column, one secondary per extra column) and child table S behind a
  RESTRICT foreign key,
* ``wal_tail`` / ``torn_writes`` shaping of the crashing event, and the
  second crash *inside* recovery (this is the one scenario whose
  restart takes a fault injector),
* the internal-consistency walk (:func:`integrity_problems`: tree
  validation, count reconciliation, heap/index cross-checks,
  ``core.integrity`` foreign keys, LSM tombstone hygiene),
* concurrent user writes at stage boundaries, with the zero-lost-
  committed-writes property (:func:`lost_user_writes`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.core.integrity import (
    ConstraintRegistry,
    OnDelete,
    find_referencing_keys,
)
from repro.errors import ReproError
from repro.faults import kernel
from repro.faults.injector import FaultInjector
from repro.faults.kernel import PointOutcome, SweepReport  # old import path
from repro.media.retry import MediaRecovery
from repro.media.scrub import reconcile_structures
from repro.recovery.restart import (
    RecoverableBulkDelete,
    UserWrite,
    apply_user_write,
    recover,
)
from repro.recovery.wal import WriteAheadLog

#: ``capture_state``'s per-table value: (sorted rows, heap record
#: count, {index name: (sorted entries, entry_count)}).
TableState = Tuple[list, int, Dict[str, Tuple[list, int]]]


@dataclass(frozen=True)
class SweepScenario:
    """A deterministic workload: every ``build()`` is bit-identical.

    Table R carries the bulk delete (unique index on the driving column
    A plus one secondary per extra column); child table S references
    only *surviving* A values, so the foreign key must hold before and
    after any crash/recovery interleaving.
    """

    records: int = 48
    delete_fraction: float = 0.4
    seed: int = 7
    page_size: int = 512
    memory_pages: int = 12
    child_rows: int = 8
    index_columns: Tuple[str, ...] = ("A", "B")
    #: Lanes for the post-table index stages (1 = serial).  The lane
    #: scheduler's interleaving is seeded and fixed, so durable-event
    #: numbering stays stable and every crash point is replayable.
    lanes: int = 1
    #: Concurrent user writes (inserts of fresh rows, deletes of
    #: unreferenced survivors) committed at the statement's stage
    #: boundaries, round-robin.  0 keeps the classic traffic-free
    #: sweep bit-identical.  The zero-lost-committed-writes property
    #: is checked per point: every ``user_op`` record surviving in the
    #: WAL must have its effect present after recovery.
    traffic_ops: int = 0

    def build(self) -> "SweepCase":
        db = Database(
            page_size=self.page_size,
            memory_bytes=self.memory_pages * self.page_size,
        )
        rng = random.Random(self.seed)
        n = self.records
        if "A" not in self.index_columns:
            raise ReproError(
                "SweepScenario needs the driving column A indexed"
            )
        # One int column per indexed name (A first: it drives the
        # delete).  The default ("A", "B") draws the same two sample
        # streams the original fixed schema did, so golden sweeps are
        # unaffected; extra columns mean extra post-table index stages
        # — the parallel branches a multi-lane sweep interleaves.
        col_vals = {"A": rng.sample(range(10 * n), n)}
        for col in self.index_columns:
            if col != "A":
                col_vals[col] = rng.sample(range(10 * n), n)
        a_vals = col_vals["A"]
        db.create_table(TableSchema.of(
            "R",
            [Attribute.int_(col) for col in self.index_columns]
            + [Attribute.char("PAD", 24)],
        ))
        db.load_table(
            "R",
            list(zip(
                *[col_vals[col] for col in self.index_columns],
                ["p"] * n,
            )),
        )
        for col in self.index_columns:
            db.create_index("R", col, unique=(col == "A"))
        count = max(1, int(n * self.delete_fraction))
        keys = sorted(rng.sample(a_vals, count))
        survivors = [a for a in a_vals if a not in set(keys)]
        db.create_table(TableSchema.of(
            "S",
            [Attribute.int_("FA"), Attribute.char("PAD", 8)],
        ))
        db.load_table(
            "S",
            [
                (survivors[i % len(survivors)], "c")
                for i in range(self.child_rows)
            ],
        )
        db.create_index("S", "FA")
        registry = ConstraintRegistry(db)
        registry.add_foreign_key("S", "FA", "R", "A", OnDelete.RESTRICT)
        # The pre-statement image must be durable: a crash at the very
        # first statement event may not lose any of the build.
        db.flush()
        traffic, order = self._traffic_schedule(col_vals, keys, survivors)
        return SweepCase(
            db=db, log=WriteAheadLog(db.disk), keys=keys,
            registry=registry, traffic=traffic, traffic_order=order,
        )

    def _traffic_schedule(
        self,
        col_vals: Dict[str, List[int]],
        keys: List[int],
        survivors: List[int],
    ) -> Tuple[Dict[str, List[UserWrite]], List[UserWrite]]:
        """The deterministic user-write schedule for this scenario.

        Inserts use fresh per-column values from a range disjoint from
        the generated data (and from each other), deletes target
        survivors the child table does not reference — so the foreign
        key holds throughout and every indexed column value identifies
        at most one logical row, the precondition of replay-by-values.
        The flattened ``order`` list is in application (= WAL) order;
        a crash leaves a prefix of it committed.
        """
        if not self.traffic_ops:
            return {}, []
        boundaries = ["after_begin", "after_driving", "after_table"] + [
            f"after_index:I_R_{col}"
            for col in self.index_columns
            if col != "A"
        ]
        rng = random.Random(self.seed + 9999)
        a_vals = col_vals["A"]
        referenced = {
            survivors[i % len(survivors)] for i in range(self.child_rows)
        }
        deletable = [
            a for a in survivors if a not in referenced
        ]
        ncols = len(self.index_columns)
        fresh_base = 100 * 10 * self.records
        traffic: Dict[str, List[UserWrite]] = {b: [] for b in boundaries}
        for i in range(self.traffic_ops):
            if deletable and rng.random() < 0.4:
                target = deletable.pop(rng.randrange(len(deletable)))
                j = a_vals.index(target)
                write = UserWrite(
                    op="delete",
                    values=tuple(
                        col_vals[col][j] for col in self.index_columns
                    ) + ("p",),
                )
            else:
                base = fresh_base + i * ncols
                write = UserWrite(
                    op="insert",
                    values=tuple(base + c for c in range(ncols)) + ("u",),
                )
            traffic[boundaries[i % len(boundaries)]].append(write)
        order = [w for b in boundaries for w in traffic[b]]
        return traffic, order


@dataclass
class SweepCase:
    """One built scenario instance."""

    db: Database
    log: WriteAheadLog
    keys: List[int]
    registry: ConstraintRegistry
    #: Per-boundary user-write schedule and its flattened WAL order.
    traffic: Dict[str, List[UserWrite]] = field(default_factory=dict)
    traffic_order: List[UserWrite] = field(default_factory=list)


def capture_state(db: Database) -> Dict[str, TableState]:
    """Logical content of every table + every B-tree index."""
    state: Dict[str, TableState] = {}
    for table in db.catalog.tables():
        if table.is_sharded:
            # A sharded logical entry owns no pages of its own; its
            # physical shard tables are separate catalog entries and
            # are captured individually below.
            continue
        rows = sorted(values for _, values in db.scan(table.schema.name))
        indexes: Dict[str, Tuple[list, int]] = {}
        for name, ix in sorted(table.indexes.items()):
            if ix.is_btree:
                indexes[name] = (
                    sorted(ix.tree.items()), ix.tree.entry_count
                )
        state[table.schema.name] = (rows, table.heap.record_count, indexes)
    return state


def logical_state(state: Dict[str, TableState]) -> Dict[str, object]:
    """RID-independent view of a captured state.

    With concurrent traffic, replayed or topped-up inserts may land at
    different RIDs than the oracle's (slot reuse after a crash), so
    traffic sweeps compare rows, counts and index *key* multisets —
    everything logical — instead of exact (key, RID) entries.
    """
    return {
        name: (
            rows,
            count,
            {
                ix: (sorted(k for k, _ in entries), n)
                for ix, (entries, n) in indexes.items()
            },
        )
        for name, (rows, count, indexes) in state.items()
    }


def lost_user_writes(db: Database, log: WriteAheadLog) -> List[str]:
    """Committed user writes whose effect is missing — must be empty.

    Every ``user_op`` record surviving in the WAL is a committed write;
    after recovery its net effect (last record per row wins) must be
    visible in the heap.
    """
    final: Dict[Tuple[str, Tuple[object, ...]], str] = {}
    for record in log.records("user_op"):
        key = (record.payload["table"], tuple(record.payload["values"]))
        final[key] = record.payload["op"]
    problems: List[str] = []
    for (table_name, values), op in final.items():
        present = any(
            row == values for _, row in db.scan(table_name)
        )
        if op == "insert" and not present:
            problems.append(
                f"lost committed user insert {values[:2]} in {table_name}"
            )
        elif op == "delete" and present:
            problems.append(
                f"resurrected user-deleted row {values[:2]} in {table_name}"
            )
    return problems


def integrity_problems(
    db: Database,
    registry: Optional[ConstraintRegistry] = None,
    deleted_keys: Optional[List[int]] = None,
    limit: int = 20,
) -> List[str]:
    """Internal-consistency violations, independent of any oracle.

    The scrubber's heap/index/count reconciliation, plus what only a
    finished delete can be held to: no run tombstone outlives a flushed
    LSM table, and no child row still references a deleted parent key
    (a SET NULL child holds ``SET_NULL_VALUE`` instead).
    """
    problems = reconcile_structures(db, limit)

    def note(message: str) -> None:
        if len(problems) < limit:
            problems.append(message)

    for table in db.catalog.tables():
        lsm = table.lsm
        if lsm is not None and lsm.tombstone_count \
                and not lsm.memtable.entries:
            note(f"{table.schema.name}: undropped run tombstones remain")
    if registry is not None and deleted_keys:
        for fk in registry.all_constraints():
            refs = find_referencing_keys(db, fk, deleted_keys)
            if refs:
                unnulled = (
                    "un-nulled " if fk.on_delete is OnDelete.SET_NULL else ""
                )
                note(
                    f"fk {fk.describe()}: {len(refs)} {unnulled}"
                    "references to deleted parent keys"
                )
    return problems


@dataclass(frozen=True)
class RecoverableStatement:
    """The scenario's bulk delete as the kernel sees it: one
    :class:`RecoverableBulkDelete` on table R, restarted by
    :func:`repro.recovery.restart.recover`."""

    scenario: SweepScenario
    full_page_writes: bool

    def build(self) -> SweepCase:
        return self.scenario.build()

    def issue(
        self,
        case: SweepCase,
        faults: Optional[FaultInjector],
        media: Optional[MediaRecovery],
    ) -> None:
        RecoverableBulkDelete(
            case.db, "R", "A", case.keys, case.log,
            faults=faults, full_page_writes=self.full_page_writes,
            lanes=self.scenario.lanes, media=media, traffic=case.traffic,
        ).run()

    def restart(
        self, case: SweepCase, faults: Optional[FaultInjector]
    ) -> bool:
        report = recover(
            case.db, case.log, faults=faults,
            full_page_writes=self.full_page_writes,
        )
        end = case.log.last("bulk_end") if case.traffic_order else None
        if end is not None and not end.payload.get("abandoned"):
            # The statement is durably complete.  Writes whose commit
            # record died with the crash were never acknowledged; the
            # client re-submits them (the oracle ran the full schedule,
            # so the comparison needs them applied).  A statement that
            # never began re-runs its whole schedule when re-issued.
            committed = sum(1 for _ in case.log.records("user_op"))
            for write in case.traffic_order[committed:]:
                apply_user_write(case.db, case.log, "R", write)
            case.db.flush()
        return report.resumed and not report.abandoned

    def state(self, case: SweepCase) -> kernel.State:
        state = capture_state(case.db)
        return logical_state(state) if case.traffic_order else state

    def problems(self, case: SweepCase, oracle: kernel.State) -> List[str]:
        problems = integrity_problems(case.db, case.registry, case.keys)
        if case.traffic_order:
            # Zero lost committed writes.  Re-submitted writes touch
            # rows of their own (every scheduled write has distinct
            # values), so they cannot mask a committed write that
            # recovery lost.
            problems = lost_user_writes(case.db, case.log) + problems
        return problems


def crash_point_sweep(
    scenario: Optional[SweepScenario] = None,
    max_points: Optional[int] = None,
    double_crash: bool = True,
    double_samples: int = 2,
    torn_writes: bool = False,
    wal_tail: str = "keep",
    full_page_writes: Optional[bool] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Sweep a crash over every (or ``max_points`` evenly spaced)
    durable event of the scenario's bulk delete.

    ``wal_tail`` shapes the crash when it lands on a WAL append:
    ``"keep"`` (the force completed), ``"drop"`` (it never did) or
    ``"torn"`` (a mutilated record persisted).  ``torn_writes`` does the
    analogue for page writes and implies ``full_page_writes`` so the
    torn pages are repairable.  ``double_samples`` recovery events per
    point are re-run with a second crash inside recovery
    (``double_samples <= 0`` means every recovery event).
    """
    if full_page_writes is None:
        full_page_writes = torn_writes
    if not double_crash:
        doubles: Optional[int] = 0
    else:
        doubles = double_samples if double_samples > 0 else None
    return kernel.crash_sweep(
        RecoverableStatement(scenario or SweepScenario(), full_page_writes),
        max_points, log_fn, doubles,
        torn_write=torn_writes,
        drop_wal_tail=(wal_tail == "drop"),
        torn_wal_tail=(wal_tail == "torn"),
    )
