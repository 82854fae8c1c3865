"""Crash-resumable execution of compiled retention plans.

``RecoverableRetentionRun`` executes one or more compiled
:class:`~repro.retention.policy.RetentionPlan` DAGs as a single
durable unit, journaling per-node progress through the WAL exactly the
way :class:`~repro.recovery.restart.RecoverableBulkDelete` journals
per-structure progress:

* ``retention_begin`` forces the full node list (tables, columns,
  keys, actions) plus a flushed-consistent catalog-metadata snapshot —
  from this point the run is *recoverable*; before it, a crash leaves
  the database pristine and the statement is simply re-issued,
* each node runs engine-dispatched — heap deletes as nested
  ``RecoverableBulkDelete`` statements (their own WAL bracket, redo
  records and checkpoints), LSM deletes as tombstone writes over the
  superblock-recoverable tree, SET NULL nodes as a journaled bulk
  UPDATE — and is sealed by ``retention_node_done`` carrying a fresh
  metadata snapshot,
* the **erase phase** then removes every physical trace of the victim
  rows the logical deletes left behind: heap pages are compacted (the
  slotted-page compactor zeroes stranded payload bytes), B-tree node
  slack beyond the live entry region is zeroed, LSM trees are fully
  compacted (dropping tombstones and freeing superseded runs),
  materialized spill pages and every freed-but-retained disk page are
  shredded with zero writes, and the WAL itself is redacted in place —
  logical redo records keep their kind and counts but lose the victim
  keys, and full-page images are replaced with the page's *current*
  durable image (still a valid repair source, no longer a data leak),
* ``retention_end`` closes the run.

:func:`recover_retention` is the restart path: it restores the most
recent retention metadata snapshot, delegates any open nested bulk
statement to :func:`repro.recovery.restart.recover`, re-opens every
LSM tree from its superblock, re-runs the unfinished nodes (idempotent
— re-deleting absent keys and re-nulling nulled rows are no-ops), and
re-runs the erase phase.  The terminal contract mirrors the bulk
statement's: after one successful recovery the next one must have
nothing to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import ENGINE_LSM
from repro.catalog.database import Database
from repro.core.integrity import SET_NULL_VALUE
from repro.errors import RecoveryError
from repro.faults.injector import FaultInjector
from repro.media.retry import MediaRecovery
from repro.recovery.restart import RecoveryReport, journaled, recover
from repro.recovery.snapshot import capture_metadata, restore_metadata
from repro.recovery.wal import WriteAheadLog
from repro.retention.policy import (
    ACTION_DELETE,
    ACTION_SET_NULL,
    RetentionPlan,
)

#: WAL record kinds owned by the retention subsystem.
RETENTION_BEGIN = "retention_begin"
RETENTION_NODE_BEGIN = "retention_node_begin"
RETENTION_NULLOUT = "retention_nullout"
RETENTION_NODE_DONE = "retention_node_done"
RETENTION_ERASED = "retention_erased"
RETENTION_END = "retention_end"

#: WAL record kinds whose payloads carry victim keys and are redacted
#: in place by the erase phase (entries/keys replaced with counts).
_REDACTABLE_ENTRY_KINDS = ("heap_deletes", "leaf_deletes")


@dataclass
class EraseReport:
    """What the unrecoverability (erase) phase physically did."""

    heap_pages_compacted: int = 0
    heap_pages_reclaimed: int = 0
    btree_pages_scrubbed: int = 0
    lsm_compactions: int = 0
    lsm_orphan_pages_freed: int = 0
    spill_pages_shredded: int = 0
    freed_pages_shredded: int = 0
    wal_records_redacted: int = 0
    wal_images_replaced: int = 0

    @property
    def pages_shredded(self) -> int:
        return self.spill_pages_shredded + self.freed_pages_shredded


@dataclass
class RetentionRunReport:
    """What one retention run (or its recovery) accomplished."""

    run_lsn: int
    policies: List[str] = field(default_factory=list)
    nodes: int = 0
    records_deleted: int = 0
    records_nulled: int = 0
    erase: EraseReport = field(default_factory=EraseReport)


@dataclass
class RetentionRecoveryReport:
    """What :func:`recover_retention` did at restart."""

    #: ``True`` when an open retention run was found and finished.
    resumed: bool = False
    #: Nodes already sealed by ``retention_node_done`` (skipped).
    nodes_skipped: int = 0
    #: Nodes (re-)executed during recovery.
    nodes_rerun: int = 0
    #: The nested bulk-statement restart report.
    restart: Optional[RecoveryReport] = None
    run: Optional[RetentionRunReport] = None


def _serialize_nodes(plans: Sequence[RetentionPlan]) -> List[Dict[str, Any]]:
    nodes: List[Dict[str, Any]] = []
    for plan in plans:
        for node in plan.nodes:
            nodes.append({
                "policy": plan.policy.name,
                "table": node.table,
                "column": node.column,
                "keys": list(node.keys),
                "action": node.action,
                "engine": node.engine,
            })
    return nodes


class RecoverableRetentionRun:
    """Run compiled retention plans as one crash-resumable unit.

    ``faults``/``full_page_writes``/``media`` arm exactly like the
    bulk statement's: the injector and the page-image sink stay armed
    across every node *and* the erase phase, so the crash sweep can
    strike any durable event of the whole policy run.  Nested bulk
    statements run with ``faults=None`` — their stage hooks stay
    silent, while durable-event crashes still fire through the armed
    disk and WAL.
    """

    def __init__(
        self,
        db: Database,
        plans: Sequence[RetentionPlan],
        log: WriteAheadLog,
        faults: Optional[FaultInjector] = None,
        full_page_writes: bool = False,
        media: Optional[MediaRecovery] = None,
    ) -> None:
        if not plans:
            raise RecoveryError("retention run needs at least one plan")
        self.db = db
        self.plans = list(plans)
        self.log = log
        self.faults = faults
        self.full_page_writes = full_page_writes
        self.media = media

    # ------------------------------------------------------------------
    def run(self) -> RetentionRunReport:
        """Execute every node and the erase phase to completion (or to
        the injected crash)."""
        with journaled(
            self.db, self.log, self.faults, self.full_page_writes, self.media
        ):
            return self._run()

    def _run(self) -> RetentionRunReport:
        db = self.db
        nodes = _serialize_nodes(self.plans)
        db.flush()
        run_lsn = self.log.append(
            RETENTION_BEGIN,
            policies=[plan.policy.name for plan in self.plans],
            nodes=nodes,
            metadata=capture_metadata(db),
        )
        report = RetentionRunReport(
            run_lsn=run_lsn,
            policies=[plan.policy.name for plan in self.plans],
            nodes=len(nodes),
        )
        obs = db.obs
        if obs is not None:
            obs.on_retention_run(len(self.plans), len(nodes))  # type: ignore[attr-defined]
        for position, node in enumerate(nodes):
            records = execute_node(db, self.log, run_lsn, position, node)
            if node["action"] == ACTION_SET_NULL:
                report.records_nulled += records
            else:
                report.records_deleted += records
        report.erase = erase_traces(db, self.log, run_lsn, nodes)
        self.log.append(RETENTION_END, run_lsn=run_lsn)
        return report


def execute_node(
    db: Database,
    log: WriteAheadLog,
    run_lsn: int,
    position: int,
    node: Dict[str, Any],
) -> int:
    """Execute one DAG node and seal it with ``retention_node_done``.

    Engine-dispatched; idempotent by construction, so recovery re-runs
    an unsealed node verbatim.  Returns the records touched.
    """
    log.append(RETENTION_NODE_BEGIN, run_lsn=run_lsn, node=position)
    keys = list(node["keys"])
    records = 0
    if not keys:
        pass  # coverage-only node: nothing to execute
    elif node["action"] == ACTION_SET_NULL:
        records = _run_set_null_node(db, log, run_lsn, position, node)
    elif node["engine"] == ENGINE_LSM:
        from repro.lsm.engine import lsm_bulk_delete

        result = lsm_bulk_delete(
            db, node["table"], node["column"], keys
        )
        records = result.records_deleted
    else:
        from repro.recovery.restart import RecoverableBulkDelete

        records = RecoverableBulkDelete(
            db, node["table"], node["column"], keys, log
        ).run()
    db.flush()
    log.append(
        RETENTION_NODE_DONE,
        run_lsn=run_lsn,
        node=position,
        records=records,
        metadata=capture_metadata(db),
    )
    obs = db.obs
    if obs is not None:
        obs.on_retention_node(node["action"], records)  # type: ignore[attr-defined]
    return records


def _run_set_null_node(
    db: Database,
    log: WriteAheadLog,
    run_lsn: int,
    position: int,
    node: Dict[str, Any],
) -> int:
    """Null-out ``node.column`` for every row whose value is in the
    node's keys, journaled by a ``retention_nullout`` record.

    The record is forced *before* any page effect (the WAL rule), so a
    crash mid-update re-runs the statement: rows already durably
    nulled no longer match the key list and are left alone.
    """
    from repro.core.bulk_update import bulk_update

    log.append(
        RETENTION_NULLOUT,
        run_lsn=run_lsn,
        node=position,
        table=node["table"],
        column=node["column"],
        keys=list(node["keys"]),
    )
    result = bulk_update(
        db,
        node["table"],
        node["column"],
        lambda values: SET_NULL_VALUE,
        where_column=node["column"],
        where_keys=list(node["keys"]),
    )
    return result.records_updated


def _reconcile_table_indexes(db: Database, table_name: str) -> None:
    """Rebuild every B-tree index of ``table_name`` from its heap.

    A crash inside a SET NULL node can leave heap pages and index
    pages split across the flush boundary; the re-run fixes the heap
    (idempotent by key-list) but cannot know which index edits were
    already durable.  One deterministic bottom-up rebuild restores
    exact index state.
    """
    table = db.table(table_name)
    for ix in table.indexes.values():
        if not ix.is_btree:
            continue
        ix.tree.bulk_load_columns(  # type: ignore[union-attr]
            *table.index_columns(ix)
        )


# ----------------------------------------------------------------------
# erase phase
# ----------------------------------------------------------------------
def erase_traces(
    db: Database,
    log: WriteAheadLog,
    run_lsn: int,
    nodes: Sequence[Dict[str, Any]],
) -> EraseReport:
    """Physically remove every trace the logical deletes left behind.

    Idempotent: every step re-applied over an already-erased database
    is a no-op (compacting a compacted page, re-zeroing zeros,
    re-redacting redacted records), which is what lets recovery simply
    re-run the whole phase after a mid-erase crash.
    """
    report = EraseReport()
    zeros = bytes(db.disk.page_size)
    heap_tables: List[str] = []
    lsm_tables: List[str] = []
    for node in nodes:
        if node["action"] != ACTION_DELETE:
            continue
        bucket = lsm_tables if node["engine"] == ENGINE_LSM else heap_tables
        if node["table"] not in bucket:
            bucket.append(node["table"])

    # 1. LSM: full compaction converges each tree to one tombstone-free
    #    level; superseded runs, log and manifest pages are freed (and
    #    shredded below).  Run responsibility bounds are then tightened
    #    to the resident keys — a covering ``key_max`` that *is* an
    #    erased key would otherwise leak it through the manifest.  Safe
    #    after full compaction: with zero tombstones left, nothing
    #    needs the wider masking span.
    import dataclasses

    from repro.lsm.sstable import run_iter

    for table_name in lsm_tables:
        table = db.table(table_name)
        assert table.lsm is not None
        lsm = table.lsm
        report.lsm_compactions += lsm.compact_all()
        tightened = False
        for runs in lsm.levels:
            for i, meta in enumerate(runs):
                resident = [k for k, _, _ in run_iter(db.pool, meta)]
                if resident and (
                    meta.key_min != resident[0]
                    or meta.key_max != resident[-1]
                ):
                    runs[i] = dataclasses.replace(
                        meta, key_min=resident[0], key_max=resident[-1]
                    )
                    tightened = True
        if tightened:
            lsm._commit()
        # Reclaim orphaned pages of the tree's files: a crash between
        # a superblock flip and the free of the pages it superseded
        # (old log chain, replaced runs/manifests) leaks them as live
        # pages no committed state references — still holding victim
        # bytes.  Freed here, they are shredded with the rest below.
        reachable = set(lsm._sb_ids)
        reachable.update(lsm._manifest_pages)
        reachable.update(lsm._log_pages)
        if lsm._log_tail_next:
            reachable.add(lsm._log_tail_next)
        for runs in lsm.levels:
            for meta in runs:
                reachable.update(meta.page_ids)
        files = {lsm.data_file, lsm.log_file, lsm.meta_file}
        for page_id in db.disk.page_ids():
            if (
                db.disk.file_of(page_id) in files
                and page_id not in reachable
            ):
                db.disk.free_page(page_id)
                report.lsm_orphan_pages_freed += 1

    # 2. Heap: compact every page (the compactor zeroes stranded
    #    payload bytes of deleted records), then free fully empty pages.
    from repro.storage.page_formats import SlottedPage

    for table_name in heap_tables:
        heap = db.table(table_name).heap
        for page_id in list(heap.page_ids):
            with db.pool.pin(page_id) as pinned:
                page = SlottedPage(pinned.data)
                page.compact()
                pinned.mark_dirty()
                heap.fsm.record(page_id, page.potential_free_space())
            report.heap_pages_compacted += 1
        report.heap_pages_reclaimed += heap.reclaim_empty_pages()

    # 3. B-trees: zero node slack beyond the live entry region — a
    #    leaf edit rewrites header + entries and leaves the old tail
    #    bytes (deleted keys and RIDs) in place past the entry count.
    from repro.btree.node import Node

    for table_name in heap_tables:
        table = db.table(table_name)
        for ix in table.indexes.values():
            if not ix.is_btree:
                continue
            page_ids = [
                n.page_id
                for nodes in ix.tree.levels()  # type: ignore[union-attr]
                for n in nodes
            ]
            for page_id in page_ids:
                with db.pool.pin(page_id) as pinned:
                    live_end = Node.live_end(pinned.data)
                    if any(pinned.data[live_end:]):
                        pinned.data[live_end:] = bytes(
                            len(pinned.data) - live_end
                        )
                        pinned.mark_dirty()
                        report.btree_pages_scrubbed += 1

    db.flush()

    # 4. Shred the materialized spill pages of every *closed* bulk
    #    statement: sorted victim keys and RID lists live there.  Page
    #    ids are never reused, so stale ids cannot alias live data.
    #    Shredding writes the raw device on purpose: spill and freed
    #    pages are not pool-resident, and the overwrite must reach the
    #    platter even if a cached frame existed — hence the pragmas.
    shredded: set = set()
    open_rec = log.find_open_bulk_delete()
    for record in log.records("materialized"):
        if open_rec is not None and record.payload["begin_lsn"] == open_rec.lsn:
            continue
        for page_id in record.payload["page_ids"]:
            if page_id not in shredded:
                db.disk.write_page(page_id, zeros)  # lint: allow(raw-page-io)
                shredded.add(page_id)
                report.spill_pages_shredded += 1

    # 5. Shred every freed-but-retained page: old heap pages, freed
    #    B-tree nodes, superseded LSM runs/logs/manifests — anything
    #    whose stale bytes a forensic read could still recover.
    for page_id in db.disk.freed_page_ids():
        if page_id in shredded:
            continue
        db.disk.write_page(page_id, zeros)  # lint: allow(raw-page-io)
        report.freed_pages_shredded += 1

    # 6. Redact the WAL in place: logical redo records keep their kind
    #    and cardinality (recovery of *closed* statements never replays
    #    them) but lose the victim keys; full-page images are replaced
    #    with the page's current durable image — still a valid repair
    #    source for a future torn write, no longer a record of the
    #    erased bytes.
    for record in log.records():
        payload = record.payload
        if record.kind in _REDACTABLE_ENTRY_KINDS and payload.get("entries"):
            payload["redacted_entries"] = len(payload["entries"])
            payload["entries"] = []
            report.wal_records_redacted += 1
        elif record.kind == RETENTION_BEGIN:
            for node_payload in payload.get("nodes", []):
                if node_payload.get("keys"):
                    node_payload["redacted_keys"] = len(node_payload["keys"])
                    node_payload["keys"] = []
                    report.wal_records_redacted += 1
        elif record.kind == RETENTION_NULLOUT and payload.get("keys"):
            payload["redacted_keys"] = len(payload["keys"])
            payload["keys"] = []
            report.wal_records_redacted += 1
        elif record.kind == "page_image":
            page_id = payload["page_id"]
            if (
                page_id in db.disk._freed_ids
                and not db.disk.retain_freed
            ):
                image = zeros
            else:
                image = db.disk.durable_image(page_id)
            if payload["image"] != image:
                payload["image"] = image
                report.wal_images_replaced += 1

    log.append(
        RETENTION_ERASED,
        run_lsn=run_lsn,
        pages_shredded=report.pages_shredded,
        wal_records_redacted=report.wal_records_redacted,
        metadata=capture_metadata(db),
    )
    obs = db.obs
    if obs is not None:
        obs.on_retention_erase(  # type: ignore[attr-defined]
            report.pages_shredded, report.wal_records_redacted
        )
    return report


# ----------------------------------------------------------------------
# restart
# ----------------------------------------------------------------------
def find_open_retention_run(log: WriteAheadLog):
    """The last ``retention_begin`` without a matching ``retention_end``."""
    open_rec = None
    for record in log.records():
        if record.kind == RETENTION_BEGIN:
            open_rec = record
        elif record.kind == RETENTION_END:
            if open_rec is not None and record.payload.get("run_lsn") == open_rec.lsn:
                open_rec = None
    return open_rec


def recover_retention(
    db: Database,
    log: WriteAheadLog,
    faults: Optional[FaultInjector] = None,
    full_page_writes: bool = False,
) -> RetentionRecoveryReport:
    """Restart processing for retention runs: finish forward.

    Always settles the WAL tail and torn pages (via
    :func:`repro.recovery.restart.recover`) even when no retention run
    is open — a crash before ``retention_begin`` leaves the database
    pristine and the caller re-issues the run from scratch.
    """
    report = RetentionRecoveryReport()
    open_rec = find_open_retention_run(log)
    if open_rec is None:
        report.restart = recover(
            db, log, faults=faults, full_page_writes=full_page_writes
        )
        return report

    report.resumed = True
    run_lsn = open_rec.lsn
    nodes: List[Dict[str, Any]] = open_rec.payload["nodes"]

    # 1. Restore the newest durable metadata snapshot.  Candidates are
    #    every metadata-bearing record: the retention run's own
    #    (``retention_begin``/``retention_node_done``/
    #    ``retention_erased``) *and* the nested bulk statements'
    #    ``checkpoint`` records — a crash between a statement's
    #    ``bulk_end`` and its node's seal leaves the statement closed
    #    (so restart below will not restore its checkpoint) while the
    #    last retention snapshot predates the whole node.  Every
    #    snapshot follows a flush, so the newest one is consistent with
    #    the durable pages.  If a nested statement is still *open*,
    #    restart re-restores its latest checkpoint anyway.
    snapshot = open_rec.payload["metadata"]
    snapshot_lsn = run_lsn
    for record in log.records():
        metadata = record.payload.get("metadata")
        if metadata is not None and record.lsn > snapshot_lsn:
            snapshot = metadata
            snapshot_lsn = record.lsn
    restore_metadata(db, snapshot)

    # 2. Let restart finish (or abandon) any open nested bulk
    #    statement; this also truncates a torn WAL tail and repairs
    #    torn page write-backs from full-page images.
    report.restart = recover(
        db, log, faults=faults, full_page_writes=full_page_writes
    )

    # 3. Re-open every LSM tree of the plan from its durable
    #    superblock: the in-memory run lists died with the crash.
    _reopen_lsm_tables(db, nodes)

    # 4. Re-run every unsealed node, in order (idempotent).
    done = {
        record.payload["node"]
        for record in log.records(RETENTION_NODE_DONE)
        if record.payload.get("run_lsn") == run_lsn
    }
    report.nodes_skipped = len(done)
    for position, node in enumerate(nodes):
        if position in done:
            continue
        # The begin record's key lists may already be redacted when the
        # crash struck inside the erase phase — by then every node was
        # sealed, so an unsealed node always has its keys.
        if node["action"] == ACTION_SET_NULL and node["keys"]:
            execute_node(db, log, run_lsn, position, node)
            _reconcile_table_indexes(db, node["table"])
            db.flush()
        else:
            execute_node(db, log, run_lsn, position, node)
        report.nodes_rerun += 1

    # 5. Re-run the erase phase end to end and close the run.
    run_report = RetentionRunReport(
        run_lsn=run_lsn,
        policies=list(open_rec.payload["policies"]),
        nodes=len(nodes),
    )
    run_report.erase = erase_traces(db, log, run_lsn, nodes)
    log.append(RETENTION_END, run_lsn=run_lsn)
    report.run = run_report
    obs = db.obs
    if obs is not None:
        obs.on_retention_resume(report.nodes_skipped)  # type: ignore[attr-defined]
    return report


def _reopen_lsm_tables(db: Database, nodes: Sequence[Dict[str, Any]]) -> None:
    from repro.lsm.tree import LsmTree

    seen: set = set()
    for node in nodes:
        if node["engine"] != ENGINE_LSM or node["table"] in seen:
            continue
        seen.add(node["table"])
        table = db.table(node["table"])
        assert table.lsm is not None
        table.lsm = LsmTree.recover(
            db.pool,
            table.lsm.handle,
            config=table.lsm.config,
            name=table.lsm.name,
        )
