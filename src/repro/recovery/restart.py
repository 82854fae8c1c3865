"""Recoverable bulk deletes: checkpoints, crash simulation, roll-forward.

Implements §3.2 of the paper: "To take full advantage of checkpointing
and to save the work done even after a system failure we propose to
*finish* the bulk deletion instead of rolling it back."

``RecoverableBulkDelete`` runs the vertical plan one structure at a
time, with:

* every intermediate result (sorted keys, RID list, per-index key/RID
  projections) *materialized to stable storage* and registered in the
  log — the paper says exactly this about "the results of the join
  variants",
* a logical redo record forced to the log *before* each page
  modification (classic WAL), so partially flushed stages can be
  re-derived,
* a checkpoint (flush everything + catalog-metadata snapshot) after
  each structure, bracketed by ``structure_done``.

``recover`` scans the log for an unfinished bulk delete, restores the
last checkpoint, and re-runs only the unfinished stages — re-deleting
an already-deleted entry is a no-op, so redo is idempotent.  Side-files
captured by concurrent updaters are applied after the bulk delete has
finished, as §3.2 requires.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.catalog.catalog import IndexInfo, TableInfo
from repro.catalog.database import Database
from repro.core.bulk_ops import BdResult
from repro.core.executor import BulkDeleteOptions
from repro.core.plans import BulkDeletePlan
from repro.core.stages import (
    DRIVING,
    KEY_SORT,
    POST_TABLE,
    RID_SORT,
    TABLE,
    Pipe,
    Stage,
    vertical_stages,
)
from repro.errors import RecoveryError, RetriesExhausted
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, SimulatedCrash
from repro.media.retry import MediaRecovery, wal_image_source
from repro.media.scrub import scrub_database
from repro.parallel import DEDICATED, LaneScheduler, LaneTask
from repro.query.spill import SpillFile
from repro.recovery.snapshot import capture_metadata, restore_metadata
from repro.recovery.wal import WriteAheadLog
from repro.storage.rid import RID
from repro.txn.sidefile import SideFile

Entry = Tuple[int, int]

__all__ = [
    "RecoverableBulkDelete",
    "RecoveryReport",
    "SimulatedCrash",
    "UserWrite",
    "apply_user_write",
    "recover",
    "replay_user_writes",
]


@dataclass(frozen=True)
class UserWrite:
    """One concurrent user write interleaved with a bulk delete.

    ``op`` is ``"insert"`` or ``"delete"``; ``values`` is the complete
    row either way, so a WAL record of the write carries everything
    replay needs to recompute every index key.  The crash sweep's
    traffic schedules guarantee each indexed column value identifies at
    most one logical row, which is what makes replay-by-values exact.
    """

    op: str
    values: Tuple[object, ...]


@dataclass
class RecoveryReport:
    """What restart did."""

    resumed: bool = False
    abandoned: bool = False
    skipped_structures: List[str] = field(default_factory=list)
    redone_structures: List[str] = field(default_factory=list)
    records_deleted: int = 0
    #: ``user_op`` records whose effects were verified/re-applied.
    user_writes_replayed: int = 0
    side_files_applied: Dict[str, int] = field(default_factory=dict)
    torn_pages_repaired: int = 0
    wal_tail_truncated: bool = False
    #: :class:`repro.media.ScrubReport` when ``recover(scrub=True)``.
    scrub_report: Optional[object] = None


class RecoverableBulkDelete:
    """A bulk delete that survives crashes at (and between) any stage.

    ``crash_point`` names one of the stage boundaries
    (``after_begin``, ``after_driving``, ``after_table``,
    ``after_index:<name>``, ``before_end``); ``crash_mid_structure``
    is ``(structure_name, nth_redo_record)`` for a crash in the middle
    of a sweep.  Either one loses the buffer pool, exactly like a power
    failure.  Arbitrary fault plans (crash after the k-th durable
    event, torn writes, dropped WAL tails) come in through ``faults``;
    the legacy keyword arguments are sugar that builds an injector for
    the equivalent plan.

    ``full_page_writes`` logs a ``page_image`` record the first time a
    clean page is dirtied, so recovery can repair torn page writes.

    ``media`` attaches a :class:`repro.media.MediaRecovery` to the
    buffer pool for the statement's duration, so pool misses survive
    transient read faults (retry + backoff) and latent corruption
    (repair from a full-page image) instead of failing the statement.

    ``lanes > 1`` runs the post-table index stages on concurrent
    simulated I/O lanes.  The scheduler's interleaving is a pure
    function of ``(stages, lanes, contention, lane_seed)``, so a crash
    point that names a durable event always lands on the same event —
    the sweep stays replayable.  Recovery itself is always serial
    (redo is idempotent; there is nothing to win by racing it).
    """

    def __init__(
        self,
        db: Database,
        table_name: str,
        column: str,
        keys: Sequence[int],
        log: WriteAheadLog,
        crash_point: Optional[str] = None,
        crash_mid_structure: Optional[Tuple[str, int]] = None,
        faults: Optional[FaultInjector] = None,
        full_page_writes: bool = False,
        lanes: int = 1,
        contention: str = DEDICATED,
        lane_seed: int = 0,
        media: Optional[MediaRecovery] = None,
        traffic: Optional[Dict[str, Sequence["UserWrite"]]] = None,
    ) -> None:
        self.db = db
        self.table_name = table_name
        self.column = column
        self.keys = list(keys)
        self.log = log
        if traffic and lanes != 1:
            raise RecoveryError(
                "concurrent user traffic requires lanes=1 (boundary "
                "application inside lane tasks would interleave "
                "non-deterministically with the schedule)"
            )
        self.traffic = traffic or {}
        if faults is None and (crash_point or crash_mid_structure):
            faults = FaultInjector(FaultPlan(
                crash_point=crash_point,
                crash_mid_structure=crash_mid_structure,
            ))
        self.faults = faults
        self.full_page_writes = full_page_writes
        self.lanes = lanes
        self.contention = contention
        self.lane_seed = lane_seed
        self.media = media

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Execute to completion (or to the injected crash)."""
        with journaled(
            self.db, self.log, self.faults, self.full_page_writes, self.media
        ):
            return self._run()

    def _run(self) -> int:
        db = self.db
        table = db.table(self.table_name)
        driving = table.indexes_on(self.column)
        if not driving:
            raise RecoveryError(
                f"recoverable bulk delete needs an index on {self.column}"
            )
        if table.hash_indexes():
            raise RecoveryError(
                "recoverable bulk deletes cover B-tree indexes only"
            )
        driving_name = driving[0].name
        others = [
            ix.name
            for ix in table.indexes.values()
            if ix.name != driving_name
        ]
        begin_lsn = self.log.append(
            "bulk_begin",
            table=self.table_name,
            column=self.column,
            stages=(
                [{"kind": "index", "name": driving_name, "role": "driving"}]
                + [{"kind": "table"}]
                + [{"kind": "index", "name": name} for name in others]
            ),
            index_order=others,
        )
        pipe = _roll_forward_pipe(
            db, table, self.column, driving_name, others, self.keys
        )
        stages = vertical_stages(pipe)
        index_stages = [s for s in stages if s.role == POST_TABLE]
        for stage in stages:
            if self.lanes == 1 or stage.role != POST_TABLE:
                self._run_stage(begin_lsn, stage)
        if self.lanes != 1 and index_stages:
            # Each lane task carries its own checkpoint and crash
            # point, so the durable-event order matches the (fixed,
            # seeded) execution order and the sweep stays replayable.
            scheduler = LaneScheduler(
                db.disk, self.lanes, self.contention, seed=self.lane_seed
            )
            scheduler.run_region(
                "index-maintenance",
                [
                    LaneTask(
                        name=stage.name,
                        run=self._make_lane_stage(begin_lsn, stage),
                        target=stage.target,
                    )
                    for stage in index_stages
                ],
                obs=db.obs,
            )

        self._boundary("before_end")
        self.log.append("bulk_end", begin_lsn=begin_lsn)
        return len(pipe.rows)

    def _run_stage(self, begin_lsn: int, stage: Stage) -> None:
        """Walk one stage under the journal.

        The ``bd`` stages run with their redo hook set; the two list
        sorts are replaced by an (uncharged) in-memory sort plus a
        materialisation to stable storage, and the post-table feeds
        are read back from there.  Each structure ends in a checkpoint,
        its crash point and the user writes scheduled at the boundary.
        """
        pipe, role, done = stage.pipe, stage.role, stage.target
        point = f"after_index:{done}"
        if role == KEY_SORT:
            pipe.keys = sorted(pipe.keys)
            self._materialize(
                "keys", 1, [(k,) for k in pipe.keys], begin_lsn
            )
            # Initial checkpoint: restart must be able to restore the
            # catalog metadata as of the statement's start even when
            # the crash hits before the first structure completes.
            done, point = "__initial__", "after_begin"
        elif role == DRIVING:
            self._run_logged(stage)
            return  # done once its RID list is on stable storage
        elif role == RID_SORT:
            pipe.rid_list = sorted(pipe.rid_list)
            self._materialize(
                "rids", 1, [(r,) for r in pipe.rid_list], begin_lsn
            )
            done, point = str(pipe.plan.driving_index), "after_driving"
        elif role == TABLE:
            indexes = [
                pipe.table.index(s.target)
                for s in pipe.plan.steps_after_table()
            ]
            stage.redo = self._heap_logger(pipe.table, indexes)
            stage.apply()
            for ix in indexes:
                pairs = sorted(
                    (ix.key_for(values, pipe.table.schema), rid.pack())
                    for rid, values in pipe.rows
                )
                self._materialize(f"pairs:{ix.name}", 2, pairs, begin_lsn)
            done, point = "__table__", "after_table"
        else:
            stage.ordered_pairs = [
                (k, r)
                for k, r in self._load_materialized(
                    f"pairs:{done}", begin_lsn
                )
            ]
            self._run_logged(stage)
        self._checkpoint(begin_lsn, done)
        self._boundary(point)

    def _make_lane_stage(self, begin_lsn: int, stage: Stage):
        def run() -> None:
            self._run_stage(begin_lsn, stage)

        return run

    def _run_logged(self, stage: Stage) -> BdResult:
        """Apply an index stage with a redo record forced per leaf."""
        structure = stage.target

        def log_leaf(removed: List[Entry]) -> None:
            self.log.append(
                "leaf_deletes", structure=structure, entries=list(removed)
            )
            self._maybe_crash_mid(structure)

        stage.redo = log_leaf
        result = stage.apply()
        assert result is not None
        return result

    def _heap_logger(
        self,
        table: TableInfo,
        indexes: Sequence[IndexInfo],
        collected: Optional[List[Tuple[int, ...]]] = None,
    ):
        """The heap sweep's redo hook: one ``heap_deletes`` record per
        page, each entry the RID plus that row's key in every index of
        ``indexes`` — what the post-table feeds are re-derived from."""

        projections = [table.key_projection(ix) for ix in indexes]

        def log_page(batch: List[Tuple[RID, bytes]]) -> None:
            entries = list(zip(
                [rid.pack() for rid, _ in batch],
                *[keys_of(batch) for keys_of in projections],
            ))
            self.log.append(
                "heap_deletes", structure="__table__", entries=entries
            )
            if collected is not None:
                collected.extend(entries)
            self._maybe_crash_mid("__table__")

        return log_page

    def _boundary(self, point: str) -> None:
        """Crash point, then the user writes scheduled at it.

        Each write's ``user_op`` WAL record is its commit point —
        forced before any page effect, so a crash anywhere after the
        append cannot lose the write (replay re-derives the effects
        from the record), and a crash before it means the write never
        committed (the client re-submits).  One flush per boundary
        makes the batch durable the cheap way.
        """
        if self.faults is not None:
            self.faults.stage(point)
        ops = self.traffic.get(point, ())
        if not ops:
            return
        for op in ops:
            apply_user_write(self.db, self.log, self.table_name, op)
        self.db.flush()

    # ------------------------------------------------------------------
    # logging / checkpointing / crashing
    # ------------------------------------------------------------------
    def _materialize(
        self, name: str, width: int, items: Sequence[Tuple[int, ...]], begin_lsn: int
    ) -> None:
        spill = SpillFile(self.db.disk, width)
        spill.extend(items)
        spill.seal()
        self.log.append(
            "materialized",
            begin_lsn=begin_lsn,
            name=name,
            width=width,
            page_ids=list(spill.page_ids),
            count=spill.tuple_count,
        )

    def _load_materialized(
        self, name: str, begin_lsn: int
    ) -> List[Tuple[int, ...]]:
        """Read a materialised list back; a list a restart wrote again
        supersedes the interrupted run's."""
        found = None
        for record in self.log.records("materialized"):
            if (
                record.payload["begin_lsn"] == begin_lsn
                and record.payload["name"] == name
            ):
                found = record.payload
        if found is None:
            raise RecoveryError(f"materialized list {name} not found in log")
        return list(
            SpillFile.from_pages(
                self.db.disk, found["width"], found["page_ids"],
                found["count"],
            )
        )

    def _checkpoint(self, begin_lsn: int, structure: str) -> None:
        self.db.flush()
        self.log.append(
            "structure_done", begin_lsn=begin_lsn, structure=structure
        )
        self.log.append(
            "checkpoint",
            begin_lsn=begin_lsn,
            metadata=capture_metadata(self.db),
        )

    def _maybe_crash_mid(self, structure: str) -> None:
        if self.faults is not None:
            self.faults.redo_record(structure)


@contextmanager
def journaled(
    db: Database,
    log: WriteAheadLog,
    faults: Optional[FaultInjector] = None,
    full_page_writes: bool = False,
    media: Optional[MediaRecovery] = None,
) -> Iterator[None]:
    """The shell of a recoverable run: ``faults`` armed on disk, pool
    and log, full-page images logged, ``media`` attached — all undone on
    exit, also when the run crashes."""

    def log_page_image(page_id: int, image: bytes) -> None:
        log.append("page_image", page_id=page_id, image=image)

    if faults is not None:
        faults.arm(db.disk, pool=db.pool, log=log)
    try:
        with db.pool.attached(
            media=media,
            page_image_sink=log_page_image if full_page_writes else None,
        ):
            yield
    finally:
        if faults is not None:
            faults.disarm()


def _roll_forward_pipe(
    db: Database,
    table: TableInfo,
    column: str,
    driving_name: str,
    index_order: Sequence[str],
    keys: Sequence[int],
) -> Pipe:
    """§3.2's statement as a vertical plan: one structure at a time —
    driving index, RID-sorted heap sweep, then every other index by
    sort/merge — so each can end in a checkpoint."""
    plan = BulkDeletePlan.fixed(
        table.name, column, driving_name, sweep=index_order
    )
    return Pipe(db, table, plan, keys, BulkDeleteOptions())


def apply_user_write(
    db: Database, log: WriteAheadLog, table_name: str, write: UserWrite
) -> None:
    """Commit one user write: force its WAL record, then apply.

    The record carries the full row, so :func:`replay_user_writes` can
    re-derive every heap and index effect without reading anything that
    might have been lost with the buffer pool.  Inserts go through the
    normal online path; deletes locate their row through the first
    index whose key matches (falling back to a heap scan) and use the
    ordinary record-level delete.
    """
    table = db.table(table_name)
    values = tuple(write.values)
    log.append(
        "user_op", table=table_name, op=write.op, values=list(values)
    )
    if write.op == "insert":
        db.insert(table_name, values)
    elif write.op == "delete":
        for rid, row in db.scan(table_name):
            if row == values:
                db.delete_record(table_name, rid)
                break
        else:
            raise RecoveryError(
                f"user delete of absent row {values[:2]}... in {table_name}"
            )
    else:
        raise RecoveryError(f"unknown user write op {write.op!r}")


def replay_user_writes(db: Database, log: WriteAheadLog) -> int:
    """Re-establish the effect of every committed user write.

    A ``user_op`` record in the log means the write committed; its page
    effects may or may not have reached disk (heap and index pages
    flush independently, and a crash can split them).  Replay is an
    idempotent *ensure*, in record order: an insert's row must exist
    with exactly one entry per index; a delete's row must be gone from
    the heap and from every index.  Stale entries — a key whose RID no
    longer holds a row producing that key — are removed; this is exact
    because the traffic schedules keep indexed column values unique per
    logical row.  Counts are recounted afterwards (replay cannot know
    which effects were already durable) and everything is flushed.

    Returns the number of records processed (0 leaves the database
    completely untouched — the non-traffic fast path).
    """
    records = list(log.records("user_op"))
    if not records:
        return 0
    touched: Set[str] = set()
    for record in records:
        table_name = record.payload["table"]
        table = db.table(table_name)
        values = tuple(record.payload["values"])
        touched.add(table_name)
        live = [
            rid for rid, row in db.scan(table_name) if row == values
        ]
        if record.payload["op"] == "insert":
            if live:
                rid = live[0]
            else:
                rid = table.heap.insert(table.serializer.pack(values))
            _ensure_index_entries(table, values, rid)
        else:
            for victim in live:
                table.heap.delete(victim, cold=True)
            _drop_stale_entries(table, values)
    for table_name in sorted(touched):
        table = db.table(table_name)
        table.heap._record_count = sum(1 for _ in table.heap.scan())
        for ix in table.indexes.values():
            if ix.is_btree:
                _reconcile_entry_count(ix.tree)
    db.flush()
    return len(records)


def _ensure_index_entries(table, values: Tuple[object, ...], rid) -> None:
    """Exactly one entry per index maps this row's keys to ``rid``."""
    packed = rid.pack()
    for ix in table.indexes.values():
        if not ix.is_btree:
            continue
        key = ix.key_for(values, table.schema)
        _drop_mismatched(table, ix, key, keep=packed)
        if packed not in ix.tree.search(key):
            ix.tree.insert(key, packed)


def _drop_stale_entries(table, values: Tuple[object, ...]) -> None:
    """No index may keep an entry for this (deleted) row's keys."""
    for ix in table.indexes.values():
        if not ix.is_btree:
            continue
        key = ix.key_for(values, table.schema)
        _drop_mismatched(table, ix, key, keep=None)


def _drop_mismatched(table, ix, key: int, keep: Optional[int]) -> None:
    """Drop entries under ``key`` whose RID does not hold a live row
    producing ``key`` (except ``keep``, the entry being ensured)."""
    for packed in list(ix.tree.search(key)):
        if packed == keep:
            continue
        rid = RID.unpack(packed)
        if not table.heap.exists(rid):
            ix.tree.delete(key, packed)
            continue
        row = table.serializer.unpack(table.heap.read(rid))
        if ix.key_for(row, table.schema) != key:
            ix.tree.delete(key, packed)


def recover(
    db: Database,
    log: WriteAheadLog,
    side_files: Optional[Dict[str, SideFile]] = None,
    faults: Optional[FaultInjector] = None,
    full_page_writes: bool = False,
    scrub: bool = False,
) -> RecoveryReport:
    """Restart processing: finish any interrupted bulk delete forward.

    ``faults`` injects crashes *into recovery itself* (the re-entrancy
    half of the crash sweep); ``full_page_writes`` keeps logging page
    images during recovery so a second torn write is repairable too.
    ``scrub`` runs a full :func:`repro.media.scrub_database` pass after
    recovery completes (checksum sweep + structural reconciliation),
    attaching the report to the result.
    """
    report = RecoveryReport()
    # Restart's checksum scan: a torn final record is truncated, pages
    # whose durable bytes fail verification (torn write-backs) are
    # repaired from their logged full-page images.
    report.wal_tail_truncated = log.truncate_torn_tail() is not None
    report.torn_pages_repaired = _repair_torn_pages(db, log)
    open_rec = log.find_open_bulk_delete()
    if open_rec is not None:
        report.resumed = True
        with journaled(db, log, faults, full_page_writes):
            _resume(db, log, open_rec, side_files, faults, report)
    # Committed user writes are re-established even when no statement
    # is open: a write's WAL record can outlive unflushed page effects
    # regardless of how the statement itself ended.
    report.user_writes_replayed = replay_user_writes(db, log)
    if scrub:
        media = MediaRecovery(
            db.disk, image_sources=[("wal", wal_image_source(log))]
        )
        report.scrub_report = scrub_database(db, media=media)
    return report


def _repair_torn_pages(db: Database, log: WriteAheadLog) -> int:
    """Repair pages whose durable bytes fail their checksum.

    A torn write-back is the classic cause: half the new image, half
    the old, under a checksum stamped for the intended image.  The
    disk's verification sweep (``corrupt_page_ids``) finds every such
    page; each is rewritten from its most recent logged full-page
    image, after which logical redo rolls it forward.  A failing page
    *without* an image is left alone: it can only be a page no durable
    structure references yet (e.g. a node the interrupted stage had
    freshly allocated — the stage re-run allocates new pages and never
    revisits it).
    """
    disk = db.disk
    corrupt = disk.corrupt_page_ids()
    if not corrupt:
        return 0
    media = MediaRecovery(
        disk, image_sources=[("wal", wal_image_source(log))]
    )
    repaired = 0
    for page_id in corrupt:
        try:
            media.read(page_id)
        except RetriesExhausted:
            continue
        repaired += 1
    return repaired


def _resume(
    db: Database,
    log: WriteAheadLog,
    open_rec,
    side_files: Optional[Dict[str, SideFile]],
    faults: Optional[FaultInjector],
    report: RecoveryReport,
) -> RecoveryReport:
    begin_lsn = open_rec.lsn
    table_name = open_rec.payload["table"]
    index_order: List[str] = open_rec.payload["index_order"]
    driving_name = open_rec.payload["stages"][0]["name"]
    table = db.table(table_name)

    # Restore the most recent checkpoint's metadata (if any).
    checkpoint = None
    for record in log.records_after(begin_lsn):
        if record.kind == "checkpoint" and record.payload["begin_lsn"] == begin_lsn:
            checkpoint = record
    if checkpoint is not None:
        restore_metadata(db, checkpoint.payload["metadata"])
    if faults is not None:
        faults.stage("recovery:after_restore")

    # A structure counts as done only if a checkpoint *follows* its
    # structure_done record.  The crash can land between the two
    # appends, and then the restored metadata predates the structure's
    # rebuild — skipping it would leave the catalog pointing at stale,
    # partially freed pages.  Re-running the stage is idempotent.
    done: Set[str] = {
        r.payload["structure"]
        for r in log.records("structure_done")
        if r.payload["begin_lsn"] == begin_lsn
        and checkpoint is not None
        and r.lsn < checkpoint.lsn
    }
    materialized = {
        r.payload["name"]: r.payload
        for r in log.records("materialized")
        if r.payload["begin_lsn"] == begin_lsn
        and checkpoint is not None
        and r.lsn < checkpoint.lsn
    }
    if "keys" not in materialized:
        # The crash hit before anything was modified: abandon the run.
        log.append("bulk_end", begin_lsn=begin_lsn, abandoned=True)
        report.abandoned = True
        return report

    runner = RecoverableBulkDelete(
        db, table_name, open_rec.payload["column"], [], log, faults=faults
    )
    pipe = _roll_forward_pipe(
        db, table, open_rec.payload["column"], driving_name, index_order, []
    )
    index_stage = {
        stage.target: stage
        for stage in vertical_stages(pipe)
        if stage.role in (DRIVING, POST_TABLE)
    }

    def load(name: str) -> List[Tuple[int, ...]]:
        return runner._load_materialized(name, begin_lsn)

    logged_by_structure: Dict[str, List[Tuple[int, ...]]] = {}
    for record in log.records_after(begin_lsn):
        if record.kind in ("leaf_deletes", "heap_deletes"):
            logged_by_structure.setdefault(
                record.payload["structure"], []
            ).extend(tuple(e) for e in record.payload["entries"])

    def redo_index(name: str) -> Set[Entry]:
        """Re-run one index stage; return what it and the interrupted
        run removed together."""
        bd = runner._run_logged(index_stage[name])
        union: Set[Entry] = set(
            (k, r) for k, r in logged_by_structure.get(name, [])
        )
        fresh_count = len(bd.deleted)
        union.update(bd.deleted)
        # Entries deleted+flushed before the crash are in the log but
        # not re-deleted now; fix the in-memory count accordingly.
        table.index(name).tree._entry_count -= len(union) - fresh_count
        return union

    # --- driving index ---------------------------------------------------
    if driving_name in done:
        report.skipped_structures.append(driving_name)
        rid_list = [r for (r,) in load("rids")]
    else:
        pipe.keys = [k for (k,) in load("keys")]
        rid_list = sorted(r for _, r in redo_index(driving_name))
        runner._materialize("rids", 1, [(r,) for r in rid_list], begin_lsn)
        runner._checkpoint(begin_lsn, driving_name)
        report.redone_structures.append(driving_name)

    # --- base table --------------------------------------------------------
    # Recovery safety code, deliberately not a stage: the sweep filters
    # on ``heap.exists``, charges no CPU and repairs the record count.
    indexes = [table.index(name) for name in index_order]
    if "__table__" in done:
        report.skipped_structures.append("__table__")
        report.records_deleted = materialized.get("rids", {}).get("count", 0)
    else:
        logged_rows = {
            row[0]: row
            for row in logged_by_structure.get("__table__", [])
        }
        # Every victim still present on disk is (re-)deleted — rows whose
        # deletion was flushed before the crash are covered by the logged
        # redo records instead.  Redo is idempotent either way.
        to_delete = [
            RID.unpack(r) for r in rid_list if table.heap.exists(RID.unpack(r))
        ]
        collected: List[Tuple[int, ...]] = list(logged_rows.values())
        pre_count = table.heap.record_count
        table.heap.delete_many_sorted(
            to_delete,
            on_page_deletes=runner._heap_logger(table, indexes, collected),
        )
        # Dedupe (a row may be both logged and re-deleted just now).
        unique_rows = {row[0]: row for row in collected}
        # Deletions flushed before the crash are not in to_delete; the
        # restored record count must still account for them.
        table.heap._record_count = pre_count - len(unique_rows)
        report.records_deleted = len(unique_rows)
        for pos, ix in enumerate(indexes):
            pairs = sorted(
                (row[1 + pos], row[0]) for row in unique_rows.values()
            )
            runner._materialize(f"pairs:{ix.name}", 2, pairs, begin_lsn)
        runner._checkpoint(begin_lsn, "__table__")
        report.redone_structures.append("__table__")

    # --- remaining indexes --------------------------------------------------
    for name in index_order:
        if name in done:
            report.skipped_structures.append(name)
            continue
        index_stage[name].ordered_pairs = [
            (k, r) for k, r in load(f"pairs:{name}")
        ]
        redo_index(name)
        runner._checkpoint(begin_lsn, name)
        report.redone_structures.append(name)

    # --- side-files after completion (§3.2) ----------------------------------
    # "The side-files are applied to the indices when the bulk deleter
    # has finished ... the changes logged in the side-files ... have to
    # be made durable after the bulk deletion changes."  Live side-file
    # objects take precedence; otherwise they are reconstructed from
    # the WAL records the (crashed) coordinator forced at append time.
    if side_files is None:
        side_files = _rebuild_side_files_from_log(log, begin_lsn)
    if faults is not None:
        faults.stage("recovery:before_side_files")
    if side_files:
        applied_already = {
            r.payload["index"]
            for r in log.records("side_file_applied")
            if r.payload.get("begin_lsn") == begin_lsn
        }
        for name, side in side_files.items():
            tree = table.index(name).tree
            if name in applied_already:
                # A previous recovery applied this side-file, logged it,
                # and crashed before ``bulk_end``.  The checkpoint we
                # restored predates the application, so the in-memory
                # entry count must be reconciled with the durable leaves.
                _reconcile_entry_count(tree)
                table.index(name).set_online()
                continue
            # Replay idempotently: a previous recovery attempt may have
            # applied part of this side-file and crashed before logging
            # ``side_file_applied``.
            applied = side.apply_batch(tree, idempotent=True)
            # Same staleness as above: any prefix that was durably
            # applied before a crash is in the leaves but not in the
            # restored checkpoint metadata.
            _reconcile_entry_count(tree)
            report.side_files_applied[name] = applied
            table.index(name).set_online()
            # Durability order per §3.2 ("the changes logged in the
            # side-files ... have to be made durable"): flush the tree
            # before the log can claim the side-file is applied, else a
            # crash after the append silently loses the updates.
            db.flush()
            if faults is not None:
                faults.stage(f"recovery:side_file:{name}")
            log.append(
                "side_file_applied", begin_lsn=begin_lsn, index=name
            )

    # The final flush mirrors the side-file rule for the stage re-runs
    # above: everything recovery rebuilt must be durable before the
    # bulk_end record closes the statement — with the log closed, a
    # later restart will not look at this statement again.
    db.flush()
    log.append("bulk_end", begin_lsn=begin_lsn)
    return report


def _reconcile_entry_count(tree) -> None:
    """Reset a tree's entry count to what its leaves actually hold.

    Checkpoints are taken per *stage*; side-files are applied after the
    last one.  Any side-file effect that became durable before a crash
    is therefore in the leaves but never in checkpoint metadata, and no
    redo arithmetic can recover the difference — recount instead.
    """
    tree._entry_count = sum(leaf.entry_count for leaf in tree.leaves())


def _rebuild_side_files_from_log(
    log: WriteAheadLog, begin_lsn: int
) -> Dict[str, SideFile]:
    """Reconstruct side-files from the ``side_file_op`` records forced
    to the log after this bulk delete began."""
    from repro.txn.sidefile import SideFileOp

    rebuilt: Dict[str, SideFile] = {}
    for record in log.records_after(begin_lsn):
        if record.kind != "side_file_op":
            continue
        name = record.payload["index"]
        side = rebuilt.setdefault(name, SideFile(name))
        side.append(
            SideFileOp(record.payload["op"]),
            record.payload["key"],
            record.payload["rid"],
        )
    return rebuilt
