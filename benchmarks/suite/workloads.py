"""The seven workloads, written against the engine's public functions.

Sizes in :data:`SIZES` are the ``--scale 1.0`` tables of ISSUE 11
(§4.1 records of 512 bytes); ``--scale`` multiplies every row, op and
point count.  All randomness derives from the seed argument through
``WorkloadConfig.seed`` / the scenarios' ``seed`` fields or a seeded
``random.Random``; the engine only ever sees generated rows, key lists
and configs.

Why each workload exists is recorded once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List

from benchmarks.suite.cycle import Cycle
from benchmarks.suite.hostclock import fastest_ns_per_op
from repro import BdMethod, bulk_delete, choose_plan, traditional_delete
from repro.btree.maintenance import validate_tree
from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.core.planner import estimate_horizontal_ms
from repro.errors import ReproError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
    SweepScenario,
    capture_state,
    crash_point_sweep,
)
from repro.lsm import LsmConfig, lsm_bulk_delete
from repro.media.scrub import scrub_database
from repro.recovery import RecoverableBulkDelete, WriteAheadLog, recover
from repro.retention import (
    RecoverableRetentionRun,
    RetentionScenario,
    audit_erasure,
    retention_integrity_problems,
)
from repro.workload.generator import (
    Workload,
    WorkloadConfig,
    build_workload,
    generate_rows,
    make_schema,
)
from repro.workload.traffic import TrafficConfig, run_oltp

DELETE_FRACTION = 0.15
OLTP_SESSIONS = 32

SIZES: Dict[str, Dict[str, int]] = {
    "vertical_3idx": {"rows": 32_000},
    "horizontal_3idx": {"rows": 32_000},
    "load_build": {"rows": 60_000, "inserts": 3_000},
    "oltp_mixed": {"rows": 32_000, "ops_per_session": 400},
    "lsm_tombstone": {"rows": 60_000, "inserts": 6_000, "gets": 5_000},
    "crash_recover": {
        "rows": 30_000, "sweep_records": 800, "sweep_points": 80,
        "sweep_child_rows": 64,
    },
    "retention_audit": {
        "users": 2_000, "victims": 500, "expired_orders": 1_000,
    },
}


def scaled_sizes(workload: str, scale: float) -> Dict[str, int]:
    return {
        key: max(2, round(value * scale))
        for key, value in SIZES[workload].items()
    }


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _paper_table(cycle: Cycle, indexes: tuple, memory_paper_mb: float = 5.0):
    """Build table R of §4.1 and its 15 % delete list (set-up)."""
    config = WorkloadConfig(
        record_count=cycle.sizes["rows"],
        index_columns=indexes,
        memory_paper_mb=memory_paper_mb,
        seed=cycle.seed,
    )
    with cycle.setup("build_workload"):
        workload = build_workload(config)
        keys = workload.delete_keys(DELETE_FRACTION)
    return workload, keys


def _check_heap_database(cycle: Cycle, db: Database, label: str) -> None:
    """``validate_tree`` on every index plus a full scrub pass."""
    with cycle.verify(f"integrity {label}"):
        for table in db.catalog.tables():
            for name, index in sorted(table.indexes.items()):
                if not index.is_btree:
                    continue
                problem = ""
                try:
                    validate_tree(index.tree)
                except ReproError as exc:
                    problem = str(exc) or type(exc).__name__
                cycle.check(
                    f"{label}: validate_tree {name}", not problem, problem
                )
        report = scrub_database(db)
        cycle.check(f"{label}: scrub", report.ok, report.summary())


def _check_deleted(
    cycle: Cycle, label: str, deleted: int, keys: List[int],
    workload: Workload,
) -> None:
    cycle.check(
        f"{label}: deleted-row count",
        deleted == len(keys),
        f"deleted {deleted}, key list holds {len(keys)}",
    )
    remaining = workload.db.table("R").heap.record_count
    expected = workload.config.record_count - len(keys)
    cycle.check(
        f"{label}: surviving-row count",
        remaining == expected,
        f"{remaining} rows left, expected {expected}",
    )


# ----------------------------------------------------------------------
# 1. vertical_3idx
# ----------------------------------------------------------------------
_VERTICAL = (
    ("sort_merge", BdMethod.SORT_MERGE, "bd.sort_merge_row_ns"),
    ("hash", BdMethod.HASH, "bd.hash_row_ns"),
    ("partitioned_hash", BdMethod.PARTITIONED_HASH, "bd.partitioned_row_ns"),
)


def vertical_3idx(cycle: Cycle) -> None:
    for name, method, row_metric in _VERTICAL:
        workload, keys = _paper_table(cycle, ("A", "B", "C"))
        db = workload.db
        if method is BdMethod.SORT_MERGE:
            _time_planner(
                cycle,
                lambda: choose_plan(
                    db, "R", "A", len(keys),
                    prefer_method=method, force_vertical=True,
                ),
            )
        with cycle.measure(
            name, db, units=len(keys), feeds={row_metric: 1e9 / len(keys)}
        ) as stmt:
            result = bulk_delete(
                db, "R", "A", keys,
                prefer_method=method, force_vertical=True,
            )
        cycle.note("heap.pages_reclaimed", result.heap_pages_reclaimed)
        if method is BdMethod.SORT_MERGE:
            cycle.notes["planner.est_over_actual"] = (
                result.plan.estimated_ms / stmt.sim_ms
            )
        _check_deleted(cycle, name, result.records_deleted, keys, workload)
        _check_heap_database(cycle, db, name)


def _time_planner(cycle: Cycle, plan: Callable[[], Any]) -> None:
    """``planner.choose_plan_us`` (traced run only): planning happens
    before the measured statement, which plans again inside."""
    if not cycle.probing:
        return
    with cycle.probe("choose_plan"):
        def batch() -> int:
            for _ in range(20):
                plan()
            return 20
        cycle.host_notes["planner.choose_plan_us"] = (
            fastest_ns_per_op(batch) / 1e3
        )


# ----------------------------------------------------------------------
# 2. horizontal_3idx
# ----------------------------------------------------------------------
def horizontal_3idx(cycle: Cycle) -> None:
    for name, presort, row_metric in (
        ("trad_sorted", True, "trad.sorted_row_ns"),
        ("trad_unsorted", False, "trad.unsorted_row_ns"),
    ):
        workload, keys = _paper_table(cycle, ("A", "B", "C"))
        db = workload.db
        if presort:
            table = db.table("R")
            _time_planner(
                cycle, lambda: choose_plan(db, "R", "A", len(keys))
            )
            estimate = estimate_horizontal_ms(db, table, len(keys)).io_ms
        with cycle.measure(
            name, db, units=len(keys), feeds={row_metric: 1e9 / len(keys)}
        ) as stmt:
            result = traditional_delete(db, "R", "A", keys, presort=presort)
        if presort:
            cycle.notes["planner.est_over_actual"] = estimate / stmt.sim_ms
        _check_deleted(cycle, name, result.records_deleted, keys, workload)
        _check_heap_database(cycle, db, name)


# ----------------------------------------------------------------------
# 3. load_build
# ----------------------------------------------------------------------
def load_build(cycle: Cycle) -> None:
    rows_n, inserts_n = cycle.sizes["rows"], cycle.sizes["inserts"]
    config = WorkloadConfig(record_count=rows_n, seed=cycle.seed)
    with cycle.setup("generate_rows"):
        rows, _ = generate_rows(rows_n + inserts_n, cycle.seed)
        db = Database(
            page_size=config.page_size, memory_bytes=config.memory_bytes
        )
        db.create_table(make_schema(config.record_bytes))
    with cycle.measure(
        "load_table", db, units=rows_n, feeds={"load.row_ns": 1e9 / rows_n}
    ):
        loaded = db.load_table("R", rows[:rows_n])
    with cycle.measure(
        "create_index", db, units=3 * rows_n,
        feeds={"index_build.entry_ns": 1e9 / (3 * rows_n)},
    ):
        for column in ("A", "B", "C"):
            db.create_index("R", column)
    with cycle.measure(
        "insert", db, units=inserts_n,
        feeds={"insert.row_ns": 1e9 / inserts_n},
    ):
        for values in rows[rows_n:]:
            db.insert("R", values)
    with cycle.measure("flush", db):
        db.flush()
    table = db.table("R")
    cycle.check("load_table: rows loaded", loaded == rows_n)
    cycle.check(
        "insert: heap row count",
        table.heap.record_count == rows_n + inserts_n,
        f"{table.heap.record_count} rows",
    )
    cycle.check(
        "create_index: entry counts",
        all(
            index.tree.entry_count == rows_n + inserts_n
            for index in table.indexes.values()
        ),
    )
    _check_heap_database(cycle, db, "load_build")


# ----------------------------------------------------------------------
# 4. oltp_mixed
# ----------------------------------------------------------------------
def oltp_mixed(cycle: Cycle) -> None:
    traffic = TrafficConfig(
        sessions=OLTP_SESSIONS,
        ops_per_session=cycle.sizes["ops_per_session"],
        think_ms=20.0,
        read_fraction=0.6,
        update_fraction=0.25,
        seed=cycle.seed,
    )
    for strategy in ("sidefile", "chunked"):
        # memory_paper_mb=64 is 12 % of the table: every index page and
        # the hot heap set stay resident (the cache-resident workload).
        workload, keys = _paper_table(cycle, ("A", "B"), memory_paper_mb=64.0)
        # Both strategies feed one metric: host us per user op.
        with cycle.measure(
            strategy, workload.db, units=traffic.total_ops,
            feeds={"traffic.op_host_us": 1e6 / (2 * traffic.total_ops)},
        ):
            result = run_oltp(
                workload, traffic, strategy=strategy,
                fraction=DELETE_FRACTION, chunk_rows=256, keys=keys,
            )
        problems = result.reconcile()
        cycle.count(
            f"{strategy}: user ops", len(result.ops),
            0 if len(result.ops) == traffic.total_ops else 1,
        )
        cycle.check(
            f"{strategy}: reconcile", not problems, "; ".join(problems[:3])
        )
        cycle.check(
            f"{strategy}: deleted-row count",
            result.records_deleted == len(keys),
            f"deleted {result.records_deleted} of {len(keys)}",
        )
        _check_heap_database(cycle, workload.db, strategy)
        during = result.phase_hist("during")
        cycle.note("traffic.ops", len(result.ops))
        cycle.note("traffic.during_ops", during.count)
        for kind, metric in (
            ("lock", "traffic.stall_lock_ms"),
            ("lane", "traffic.stall_lane_ms"),
        ):
            cycle.note(metric, sum(
                op.delete_stall_ms for op in result.ops
                if op.stall_kind == kind
            ))
        cycle.note(
            "traffic.peer_wait_ms", sum(op.peer_wait_ms for op in result.ops)
        )
        cycle.note(
            "traffic.window_sim_ms",
            result.delete_end_ms - result.delete_submit_ms,
        )
        if strategy == "sidefile":
            # The headline user latencies are the paper's §3 design;
            # the chunked baseline's are in the per-statement detail.
            cycle.notes["user_during_p50_ms"] = during.percentile(50)
            cycle.notes["user_during_p90_ms"] = during.percentile(90)
            cycle.notes["user_p99_ms"] = result.global_hist.percentile(99)
        cycle.notes[f"{strategy}.during_p50_ms"] = during.percentile(50)
        cycle.notes[f"{strategy}.during_p90_ms"] = during.percentile(90)


# ----------------------------------------------------------------------
# 5. lsm_tombstone
# ----------------------------------------------------------------------
def lsm_tombstone(cycle: Cycle) -> None:
    rows_n, inserts_n = cycle.sizes["rows"], cycle.sizes["inserts"]
    gets_n = cycle.sizes["gets"]
    config = WorkloadConfig(record_count=rows_n, seed=cycle.seed)
    with cycle.setup("build_lsm"):
        rng = random.Random(cycle.seed)
        values = rng.sample(
            range(max(10 * (rows_n + inserts_n), 1 << 22)),
            rows_n + inserts_n,
        )
        loaded, fresh = values[:rows_n], values[rows_n:]
        keys = rng.sample(loaded, rows_n // 10)
        deleted = set(keys)
        survivors = [a for a in values if a not in deleted]
        sample = rng.sample(survivors, min(gets_n, len(survivors)))
        db = Database(
            page_size=config.page_size, memory_bytes=config.memory_bytes
        )
        db.create_table(
            TableSchema.of("R", [
                Attribute.int_("A"),
                Attribute.char("PAD", config.record_bytes - 8),
            ]),
            engine="lsm",
            lsm_config=LsmConfig(memtable_entries=max(64, rows_n // 64)),
        )
        db.load_table("R", [(a, "x" * 8) for a in loaded])
        db.flush()
        plan = choose_plan(db, "R", "A", len(keys))
    tree = db.table("R").lsm
    disk_before = db.disk.stats.snapshot()
    tree_before = tree.stats.snapshot()

    with cycle.measure(
        "lsm_insert", db, units=inserts_n,
        feeds={"lsm.put_ns": 1e9 / inserts_n},
    ):
        for a in fresh:
            db.insert("R", (a, "y" * 8))
    with cycle.measure("lsm_delete", db, units=len(keys)) as stmt:
        result = lsm_bulk_delete(db, "R", "A", keys, compact=True)
    gets_before = tree.stats.snapshot()
    with cycle.measure(
        "lsm_get", db, units=len(sample),
        feeds={"lsm.get_ns": 1e9 / len(sample)},
    ):
        missing = sum(1 for key in sample if tree.get(key) is None)
    gets = tree.stats.delta_since(gets_before)
    with cycle.measure("lsm_vacuum", db, feeds={"lsm.vacuum_host_s": 1.0}):
        db.vacuum("R")

    stats = tree.stats.delta_since(tree_before)
    written = db.disk.stats.delta_since(disk_before).writes
    cycle.notes["planner.est_over_actual"] = plan.estimated_ms / stmt.sim_ms
    cycle.notes["lsm.pages_per_get"] = (
        gets.lookup_pages_read / max(1, gets.lookups)
    )
    cycle.notes["lsm.runs_per_get"] = (
        gets.lookup_runs_probed / max(1, gets.lookups)
    )
    cycle.notes["lsm.tombstones_point"] = result.point_tombstones
    cycle.notes["lsm.tombstones_range"] = result.range_tombstones
    _note_lsm_counters(cycle, stats)
    user_bytes = len(survivors) * config.record_bytes
    cycle.notes["lsm.write_amp"] = (
        written * config.page_size / (inserts_n * config.record_bytes)
    )
    cycle.notes["lsm.space_amp"] = (
        db.disk.num_pages * config.page_size / user_bytes
    )

    cycle.count("lsm_get: survivors readable", len(sample), missing)
    cycle.check(
        "lsm: page_writes == disk writes",
        stats.page_writes == written,
        f"tree accounts for {stats.page_writes}, disk wrote {written}",
    )
    cycle.check(
        "lsm_delete: deleted-row count",
        result.records_deleted == len(keys),
    )
    with cycle.verify("lsm scan"):
        live = sum(1 for _ in db.scan("R"))
        gone = sum(1 for key in keys[:200] if tree.get(key) is None)
    cycle.check(
        "lsm: surviving-row count", live == len(survivors),
        f"{live} rows scanned, expected {len(survivors)}",
    )
    cycle.check("lsm: deleted keys unreadable", gone == len(keys[:200]))


def _note_lsm_counters(cycle: Cycle, stats: Any) -> None:
    cycle.note("lsm.flushes", stats.flushes)
    cycle.note("lsm.compactions", stats.compactions)
    cycle.note("lsm.compaction_pages_written", stats.compaction_pages_written)
    cycle.note("lsm.tombstones_dropped", stats.tombstones_dropped)


# ----------------------------------------------------------------------
# 6. crash_recover
# ----------------------------------------------------------------------
def crash_recover(cycle: Cycle) -> None:
    workload, keys = _paper_table(cycle, ("A", "B", "C"))
    db = workload.db
    log = WriteAheadLog(db.disk)
    counter = FaultInjector()
    with cycle.measure("recoverable", db, units=len(keys)) as fault_free:
        deleted = RecoverableBulkDelete(
            db, "R", "A", keys, log,
            faults=counter, full_page_writes=True,
        ).run()
    events = counter.durable_event_count
    cycle.notes["faults.durable_events"] = events
    cycle.notes["wal.records"] = len(log)
    cycle.notes["wal.page_images"] = sum(
        1 for _ in log.records("page_image")
    )
    _check_deleted(cycle, "recoverable", deleted, keys, workload)
    _check_heap_database(cycle, db, "recoverable")
    with cycle.verify("capture oracle"):
        oracle = capture_state(db)
    del workload, db

    crashed, _ = _paper_table(cycle, ("A", "B", "C"))
    crashed_log = WriteAheadLog(crashed.db.disk)
    with cycle.setup("crash mid-statement"):
        crash = None
        try:
            RecoverableBulkDelete(
                crashed.db, "R", "A", keys, crashed_log,
                faults=FaultInjector(
                    FaultPlan(crash_after_event=max(1, events // 2))
                ),
                full_page_writes=True,
            ).run()
        except SimulatedCrash as exc:
            crash = exc
    cycle.check("crash: injected", crash is not None)
    records_before = len(crashed_log)
    # recover() is reported as ``recover_sim_ms``; the workload's
    # ``sim_*`` totals stay the fault-free recoverable statement.
    with cycle.measure(
        "recover", crashed.db, counts_sim=False,
        feeds={"recover.host_s": 1.0},
    ) as recovery:
        report = recover(crashed.db, crashed_log, full_page_writes=True)
    cycle.notes["recover_sim_ms"] = recovery.sim_ms
    cycle.notes["recover.redo_records"] = len(crashed_log) - records_before
    cycle.check("recover: resumed", report.resumed)
    with cycle.verify("compare with oracle"):
        same = capture_state(crashed.db) == oracle
    cycle.check("recover: state == fault-free oracle", same)
    _check_heap_database(cycle, crashed.db, "recover")

    if cycle.probing:
        # Price of durability: the same table and key list through the
        # plain sort/merge plan (not part of the measured section).
        plain, _ = _paper_table(cycle, ("A", "B", "C"))
        with cycle.probe("plain sort/merge baseline"):
            bulk_delete(
                plain.db, "R", "A", keys,
                prefer_method=BdMethod.SORT_MERGE, force_vertical=True,
            )
        cycle.notes["recoverable.sim_overhead_pct"] = 100.0 * (
            fault_free.sim_ms / plain.db.clock.now_ms - 1.0
        )

    scenario = SweepScenario(
        records=cycle.sizes["sweep_records"],
        memory_pages=32,
        child_rows=cycle.sizes["sweep_child_rows"],
        seed=cycle.seed,
    )
    with cycle.measure("sweep") as sweep_stmt:
        sweep = crash_point_sweep(
            scenario, max_points=cycle.sizes["sweep_points"]
        )
    sweep_stmt.units = max(1, len(sweep.outcomes))
    sweep_stmt.feeds["sweep.point_host_ms"] = 1e3 / sweep_stmt.units
    cycle.notes["sweep.points"] = len(sweep.outcomes)
    cycle.count(
        "sweep: crash points", len(sweep.outcomes), len(sweep.failures),
        sweep.summary(),
    )


# ----------------------------------------------------------------------
# 7. retention_audit
# ----------------------------------------------------------------------
def _retention_scenario(cycle: Cycle, divisor: int = 1) -> RetentionScenario:
    return RetentionScenario(
        users=max(4, cycle.sizes["users"] // divisor),
        victims=max(1, cycle.sizes["victims"] // divisor),
        orders_per_user=2,
        expired_orders=max(1, cycle.sizes["expired_orders"] // divisor),
        memory_pages=256,
        seed=cycle.seed,
    )


def retention_audit(cycle: Cycle) -> None:
    with cycle.setup("build scenario"):
        case = _retention_scenario(cycle).build()
    db = case.db
    events = db.table("events").lsm
    events_before = events.stats.snapshot()
    with cycle.measure(
        "compile", db, feeds={"retention.compile_host_ms": 1e3}
    ):
        plans = case.compile()
    with cycle.measure(
        "run", db, feeds={"retention.run_host_s": 1.0}
    ) as run_stmt:
        report = RecoverableRetentionRun(
            db, plans, case.log, full_page_writes=True
        ).run()
    with cycle.measure(
        "audit", db, feeds={"retention.audit_host_s": 1.0}
    ) as audit_stmt:
        audit = audit_erasure(db, case.log, case.witness(plans))
    audit_stmt.units = max(1, audit.pages_scanned)
    audit_stmt.feeds["retention.audit_page_ns"] = 1e9 / audit_stmt.units

    cycle.notes["retention.run_sim_ms"] = run_stmt.sim_ms
    cycle.notes["retention.audit_sim_ms"] = audit_stmt.sim_ms
    cycle.notes["retention.pages_shredded"] = report.erase.pages_shredded
    cycle.notes["retention.wal_redacted"] = report.erase.wal_records_redacted
    cycle.notes["retention.audit_pages_scanned"] = audit.pages_scanned
    cycle.notes["wal.records"] = len(case.log)
    cycle.notes["wal.page_images"] = sum(
        1 for _ in case.log.records("page_image")
    )
    cycle.note("heap.pages_reclaimed", report.erase.heap_pages_reclaimed)
    _note_lsm_counters(cycle, events.stats.delta_since(events_before))

    cycle.count(
        "audit: surfaces swept",
        audit.pages_scanned + audit.wal_records_scanned,
        len(audit.findings),
        audit.summary(),
    )
    cycle.check("audit: ok", audit.ok)
    cycle.check(
        "run: victims deleted",
        report.records_deleted >= len(case.victims),
        f"{report.records_deleted} records deleted",
    )
    with cycle.verify("retention integrity"):
        problems = retention_integrity_problems(
            db, case.registry, case.victims
        )
    cycle.check(
        "run: integrity", not problems, "; ".join(problems[:3])
    )

    if cycle.probing:
        # Scaling probe for the audit cliff: the same pipeline at half
        # the subjects; per-page audit cost should not depend on size.
        half = _retention_scenario(cycle, divisor=2).build()
        half_plans = half.compile()
        RecoverableRetentionRun(
            half.db, half_plans, half.log, full_page_writes=True
        ).run()
        with cycle.probe("audit at half size") as span:
            half_audit = audit_erasure(
                half.db, half.log, half.witness(half_plans)
            )
        cycle.host_notes["retention.audit_page_ns_half"] = (
            span.duration_s * 1e9 / max(1, half_audit.pages_scanned)
        )
        cycle.check("audit at half size: ok", half_audit.ok)


WORKLOADS: Dict[str, Callable[[Cycle], None]] = {
    "vertical_3idx": vertical_3idx,
    "horizontal_3idx": horizontal_3idx,
    "load_build": load_build,
    "oltp_mixed": oltp_mixed,
    "lsm_tombstone": lsm_tombstone,
    "crash_recover": crash_recover,
    "retention_audit": retention_audit,
}
