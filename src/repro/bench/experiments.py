"""One function per table/figure of the paper's evaluation.

Each returns a :class:`~repro.bench.harness.Series` whose
``scaled_minutes`` are comparable to the paper's y-axes (simulated
seconds scaled by the record-count ratio).  ``record_count`` trades
wall-clock time for fidelity; the shapes are stable from a few thousand
records upward.
"""

from __future__ import annotations

import copy
from typing import Dict, List

from repro.bench.harness import Row, RunResult, Series, run_approach, sweep
from repro.core.executor import BulkDeleteOptions
from repro.workload.generator import WorkloadConfig, build_workload

DEFAULT_RECORDS = 20_000

#: The three plans Experiments 1-4 compare, in report column order.
TRAD_AND_BULK = ("sorted/trad", "not sorted/trad", "bulk")


def figure_1(record_count: int = DEFAULT_RECORDS) -> Series:
    """Intro figure: commercial RDBMS behaviour, 3 indexes, 1-15 %.

    The "commercial product" is approximated by the traditional
    executor with an unsorted delete list (the paper says its prototype
    ``not sorted/trad`` roughly corresponds to the studied product) and
    by ``drop & create``.
    """
    config = lambda pct: WorkloadConfig(  # noqa: E731
        record_count=record_count,
        index_columns=("A", "B", "C"),
        memory_paper_mb=10.0,
    )
    return sweep(
        title="Figure 1: bulk deletes on a 3-index table (commercial-style)",
        x_label="% deleted",
        x_values=[1, 5, 10, 15],
        rows={
            "not sorted/trad": Row("not sorted/trad", config),
            # A commercial system creates indexes efficiently (sort +
            # bulk load); the prototype-style "insert" rebuild is
            # Figure 8's story.
            "drop&create": Row(
                "drop&create", config, dc_create_method="bulk"
            ),
        },
        make_fraction=lambda pct: pct / 100.0,
    )


def figure_7(record_count: int = DEFAULT_RECORDS) -> Series:
    """Experiment 1: vary deleted fraction; 1 unclustered index, 5 MB."""
    config = lambda pct: WorkloadConfig(  # noqa: E731
        record_count=record_count,
        index_columns=("A",),
        memory_paper_mb=5.0,
    )
    return sweep(
        title="Figure 7: vary deletes, 1 unclustered index, 5 MB memory",
        x_label="% deleted",
        x_values=[5, 10, 15, 20],
        rows={approach: Row(approach, config) for approach in TRAD_AND_BULK},
        make_fraction=lambda pct: pct / 100.0,
    )


def figure_8(record_count: int = DEFAULT_RECORDS) -> Series:
    """Experiment 2: vary number of indexes; 15 % deletes.

    ``drop & create`` rebuilds entry at a time, like the paper's
    prototype.  Its 1-index point is still defined: there is no
    secondary index to drop, so it degenerates to sorted/trad.
    """
    index_sets = {1: ("A",), 2: ("A", "B"), 3: ("A", "B", "C")}
    config = lambda n: WorkloadConfig(  # noqa: E731
        record_count=record_count,
        index_columns=index_sets[n],
        memory_paper_mb=5.0,
    )
    return sweep(
        title="Figure 8: vary indexes, 15% deletes, 5 MB memory",
        x_label="indexes",
        x_values=[1, 2, 3],
        rows={
            approach: Row(approach, config)
            for approach in TRAD_AND_BULK + ("drop&create",)
        },
        make_fraction=lambda n: 0.15,
    )


def table_1(record_count: int = DEFAULT_RECORDS) -> Series:
    """Experiment 3: index height 3 vs 4; 15 % deletes, 5 MB memory."""
    config = lambda height: WorkloadConfig(  # noqa: E731
        record_count=record_count,
        index_columns=("A",),
        memory_paper_mb=5.0,
        index_height=height,
    )
    return sweep(
        title="Table 1: vary index height, 1 unclustered index, 15% deletes",
        x_label="height",
        x_values=[3, 4],
        rows={approach: Row(approach, config) for approach in TRAD_AND_BULK},
        make_fraction=lambda height: 0.15,
    )


def figure_9(record_count: int = DEFAULT_RECORDS) -> Series:
    """Experiment 4: vary main memory; 1 unclustered index, 15 %.

    The workload is run at twice the base scale with a lower memory
    floor so the three scaled budgets genuinely differ — otherwise the
    floor that keeps the other experiments honest would clamp them all
    to the same pool size and flatten the one curve this experiment is
    about.
    """
    config = lambda mb: WorkloadConfig(  # noqa: E731
        record_count=record_count * 2,
        index_columns=("A",),
        memory_paper_mb=float(mb),
        memory_floor_pages=8,
    )
    return sweep(
        title="Figure 9: vary memory, 1 unclustered index, 15% deletes",
        x_label="memory (paper MB)",
        x_values=[2, 6, 10],
        rows={approach: Row(approach, config) for approach in TRAD_AND_BULK},
        make_fraction=lambda mb: 0.15,
    )


def figure_10(record_count: int = DEFAULT_RECORDS) -> Series:
    """Experiment 5: clustered index I_A; vary deleted fraction."""
    clustered = lambda pct: WorkloadConfig(  # noqa: E731
        record_count=record_count,
        index_columns=("A",),
        memory_paper_mb=5.0,
        clustered_on="A",
    )
    unclustered = lambda pct: WorkloadConfig(  # noqa: E731
        record_count=record_count,
        index_columns=("A",),
        memory_paper_mb=5.0,
    )
    return sweep(
        title="Figure 10: clustered index, 1 index, 5 MB memory",
        x_label="% deleted",
        x_values=[6, 10, 15, 20],
        rows={
            "sorted/trad/clust": Row("sorted/trad", clustered),
            "sorted/trad/unclust": Row("sorted/trad", unclustered),
            "not sorted/trad/clust": Row("not sorted/trad", clustered),
            "bulk": Row("bulk", clustered),
        },
        make_fraction=lambda pct: pct / 100.0,
    )


def fig_parallel_speedup(record_count: int = DEFAULT_RECORDS) -> Series:
    """Extension: multi-lane execution of the Figure 8 four-index plan.

    The workload indexes five columns (A drives the delete; B, C, D2
    and E become four near-equal post-table sweep branches), 15 %
    deletes.  ``lanes=1`` is the paper's serial single-disk testbed —
    bit-identical to the plain bulk run; higher lane counts schedule
    the independent branches concurrently.  ``dedicated`` lanes model
    one disk per lane (makespan = max over lanes, near-linear region
    speedup); ``shared`` lanes interleave on one device, losing every
    sequentiality discount — slower than not parallelizing at all.
    """
    config = lambda lanes: WorkloadConfig(  # noqa: E731
        record_count=record_count,
        index_columns=("A", "B", "C", "D2", "E"),
        memory_paper_mb=5.0,
    )
    return sweep(
        title="Parallel speedup: 4 post-table branches, 15% deletes, "
        "dedicated vs shared lanes",
        x_label="lanes",
        x_values=[1, 2, 4],
        rows={
            contention: Row(
                "bulk", config,
                make_options=lambda lanes, contention=contention: (
                    BulkDeleteOptions(lanes=lanes, contention=contention)
                ),
            )
            for contention in ("dedicated", "shared")
        },
        make_fraction=lambda lanes: 0.15,
    )


def fig_scrub_overhead(record_count: int = DEFAULT_RECORDS) -> Series:
    """Extension: what the scrubber costs next to the work it protects.

    For several table sizes, run the 15 % sort/merge bulk delete and
    then one full :func:`repro.media.scrub_database` pass (checksum
    sweep of every durable page + heap/index cross-reconciliation) on
    the same database.  The scrub reads the whole database once, mostly
    sequentially, so its cost grows with the table but stays well below
    the delete it guards.  Each scrub row's ``extra`` carries the pages
    checked and the overhead relative to the delete.
    """
    from repro.core.executor import bulk_delete
    from repro.core.plans import BdMethod
    from repro.media import scrub_database

    sizes = sorted({max(record_count // 4, 500),
                    max(record_count // 2, 1000), record_count})
    series = Series(
        title="Scrub overhead: 15% bulk delete vs one full scrub pass",
        x_label="records",
        x_values=sizes,
    )
    series.rows = {"bulk delete": [], "scrub pass": []}
    for n in sizes:
        config = WorkloadConfig(
            record_count=n, index_columns=("A", "B"), memory_paper_mb=5.0
        )
        wl = build_workload(config)
        keys = wl.delete_keys(0.15)
        wl.reset_measurements()
        db = wl.db
        result = bulk_delete(
            db, "R", "A", keys,
            prefer_method=BdMethod.SORT_MERGE, force_vertical=True,
        )
        delete_seconds = db.clock.now_seconds
        delete_io = db.disk.stats.snapshot()
        report = scrub_database(db)
        scrub_seconds = db.clock.now_seconds - delete_seconds
        scrub_io = db.disk.stats.delta_since(delete_io)
        if not report.ok:
            raise RuntimeError(
                "scrub of a healthy database reported damage: "
                + report.summary()
            )
        scale = config.scale_factor
        series.rows["bulk delete"].append(RunResult(
            approach="bulk delete", fraction=0.15,
            records_deleted=result.records_deleted,
            sim_seconds=delete_seconds,
            scaled_minutes=delete_seconds / 60.0 * scale,
            io=delete_io,
        ))
        series.rows["scrub pass"].append(RunResult(
            approach="scrub pass", fraction=0.15,
            records_deleted=0,
            sim_seconds=scrub_seconds,
            scaled_minutes=scrub_seconds / 60.0 * scale,
            io=scrub_io,
            extra={
                "pages_checked": float(report.pages_checked),
                "overhead_pct": 100.0 * scrub_seconds / delete_seconds,
            },
        ))
    return series


def fig_retention_overhead(record_count: int = DEFAULT_RECORDS) -> Series:
    """Extension: the price of *compliant* deletion.

    For several subject-population sizes, compare three passes over the
    same two-policy retention scenario (heap root cascading into heap +
    LSM children over CASCADE/SET NULL/RESTRICT edges):

    * ``cascade delete`` — the bare FK-guarded bulk delete of the same
      victims (what the executor alone would do),
    * ``retention run`` — the full journaled run: WAL protocol,
      full-page writes, node seals, and the erase pass that shreds
      freed pages, index slack, spill files and redacts the WAL,
    * ``audit pass`` — the forensic unrecoverability sweep over live
      and freed pages, indexes, LSM runs, WAL and images.

    The gap between the first two is the compliance premium; the audit
    is read-only and must find nothing.  ``extra`` carries the erase
    and audit counters (pages shredded, WAL records redacted, pages
    scanned, overhead vs the bare cascade).
    """
    from repro.core.executor import bulk_delete
    from repro.core.integrity import cascade_bulk_delete
    from repro.retention import (
        RecoverableRetentionRun,
        RetentionScenario,
        audit_erasure,
    )

    base_users = max(record_count // 250, 16)
    sizes = sorted({max(base_users // 4, 8),
                    max(base_users // 2, 12), base_users})
    series = Series(
        title="Retention overhead: bare cascade vs journaled run + "
        "erase vs unrecoverability audit",
        x_label="subjects",
        x_values=sizes,
    )
    series.rows = {
        "cascade delete": [], "retention run": [], "audit pass": [],
    }

    def scenario(n: int) -> RetentionScenario:
        return RetentionScenario(
            users=n, victims=max(n // 4, 2), orders_per_user=2,
            expired_orders=n // 2, memory_pages=48,
        )

    for n in sizes:
        # Both passes run on a fork of one build (the database and the
        # objects bound to it, as the fault-sweep kernel forks a case).
        template = scenario(n).build()
        # Pass 1: the unguarded equivalent — FK-aware cascade plus the
        # age expiry, no WAL protocol, no erase, no audit.
        case = copy.deepcopy(template)
        base = case.db.clock.now_seconds
        base_io = case.db.disk.stats.snapshot()
        result, report = cascade_bulk_delete(
            case.db, case.registry, "users", "UID", list(case.victims),
        )
        deleted = result.records_deleted + sum(
            r.records_deleted for r in report.cascaded
        )
        expiry = bulk_delete(
            case.db, "orders", "TS",
            [t for t in case.expired_ts],
        )
        deleted += expiry.records_deleted
        cascade_seconds = case.db.clock.now_seconds - base
        series.rows["cascade delete"].append(RunResult(
            approach="cascade delete", fraction=0.0,
            records_deleted=deleted,
            sim_seconds=cascade_seconds,
            scaled_minutes=cascade_seconds / 60.0,
            io=case.db.disk.stats.delta_since(base_io),
        ))

        # Pass 2 + 3: the compliant run, then the adversary's read.
        case = copy.deepcopy(template)
        plans = case.compile()
        base = case.db.clock.now_seconds
        base_io = case.db.disk.stats.snapshot()
        run_report = RecoverableRetentionRun(
            case.db, plans, case.log, full_page_writes=True,
        ).run()
        run_seconds = case.db.clock.now_seconds - base
        run_io = case.db.disk.stats.delta_since(base_io)
        series.rows["retention run"].append(RunResult(
            approach="retention run", fraction=0.0,
            records_deleted=run_report.records_deleted,
            sim_seconds=run_seconds,
            scaled_minutes=run_seconds / 60.0,
            io=run_io,
            extra={
                "pages_shredded": float(run_report.erase.pages_shredded),
                "wal_redacted": float(
                    run_report.erase.wal_records_redacted
                ),
                "premium_pct": 100.0 * run_seconds / cascade_seconds,
            },
        ))

        audit_base = case.db.clock.now_seconds
        audit_base_io = case.db.disk.stats.snapshot()
        audit = audit_erasure(case.db, case.log, case.witness(plans))
        if not audit.ok:
            raise RuntimeError(
                "audit of a clean retention run found traces: "
                + audit.summary()
            )
        audit_seconds = case.db.clock.now_seconds - audit_base
        series.rows["audit pass"].append(RunResult(
            approach="audit pass", fraction=0.0,
            records_deleted=0,
            sim_seconds=audit_seconds,
            scaled_minutes=audit_seconds / 60.0,
            io=case.db.disk.stats.delta_since(audit_base_io),
            extra={
                "pages_scanned": float(audit.pages_scanned),
                "wal_records_scanned": float(audit.wal_records_scanned),
            },
        ))
    return series


def fig_oltp_interference(record_count: int = DEFAULT_RECORDS) -> Series:
    """Extension: what live OLTP sessions feel while the delete runs.

    Seeded closed-loop traffic (point reads, pad updates, inserts from
    N sessions) interleaves with a 15 % bulk delete on one simulated
    clock, once per delete strategy: the paper's §3 side-file vertical
    plan and a ``DELETE ... LIMIT``-style chunked horizontal plan.  The
    delete's work and the user ops share a single FCFS queue, so every
    millisecond a session waits is attributable — to the critical
    phase's table lock, to a propagation/chunk slice, or to queueing
    behind peers.  The headline metric is the p99 user latency *during*
    the delete window: the side-file plan pays one critical-phase
    stall (its sequential sweeps make it short per row) and then short
    propagation slices, while every chunk of the chunked plan is an
    indivisible random-I/O slice concurrent ops queue behind.

    Chunk sizing is the chunked plan's latency/duration dial — and it
    only trades one loss for another.  Shrinking chunks shortens each
    stall but multiplies the per-chunk progress persistence and
    stretches the interference window (already ~10x the side-file
    window here); the 256-row chunks used here are on the small end of
    the operational guidance for ``DELETE ... LIMIT`` batching, and
    each one already out-stalls the side-file plan's whole critical
    phase because a chunk pays ~3 random accesses per row where the
    critical sweep pays a fraction of a sequential page.  Each row's
    ``extra`` carries the exact during-phase percentiles, the stall
    decomposition, and the reconciliation problem count (always 0: the
    histograms, spans and metrics must agree exactly).
    """
    from repro.workload.traffic import run_interference_comparison

    series = Series(
        title="OLTP interference: p99 user latency during a 15% bulk "
        "delete, side-file vs chunked",
        x_label="sessions",
        x_values=[2, 8],
    )
    series.rows = {"sidefile": [], "chunked": []}
    config = WorkloadConfig(
        record_count=record_count, index_columns=("A", "B")
    )
    for sessions in series.x_values:
        results = run_interference_comparison(
            record_count=record_count,
            sessions=sessions,
            chunk_rows=256,
            observe=True,
        )
        for name in ("sidefile", "chunked"):
            result = results[name]
            db = result.workload.db
            problems = result.reconcile(db.obs)
            during = result.phase_hist("during")
            sim_seconds = db.clock.now_seconds
            series.rows[name].append(RunResult(
                approach=name, fraction=0.15,
                records_deleted=result.records_deleted,
                sim_seconds=sim_seconds,
                scaled_minutes=sim_seconds / 60.0 * config.scale_factor,
                io=db.disk.stats.snapshot(),
                extra={
                    "p50_during_ms": during.percentile(50),
                    "p95_during_ms": during.percentile(95),
                    "p99_during_ms": during.percentile(99),
                    "ops_during": float(during.count),
                    "stall_lock_ms": sum(
                        op.delete_stall_ms for op in result.ops
                        if op.stall_kind == "lock"
                    ),
                    "stall_lane_ms": sum(
                        op.delete_stall_ms for op in result.ops
                        if op.stall_kind == "lane"
                    ),
                    "delete_window_ms": (
                        result.delete_end_ms - result.delete_submit_ms
                    ),
                    "reconcile_problems": float(len(problems)),
                },
            ))
    return series


def fig_shard_scaling(record_count: int = DEFAULT_RECORDS) -> Series:
    """Extension: range-sharded delete throughput vs dedicated lanes.

    The workload is range-sharded on the driving column A into four
    equi-depth shards (each with its own heap and A-index); a 15 %
    delete list routes into four near-equal fragments that run as
    independent ``LaneTask``s.  ``lanes=1`` executes the fragments back
    to back on the serial code path (with one shard this is
    bit-identical to the unsharded executor); ``lanes=2`` packs two
    shards per dedicated lane and ``lanes=4`` gives each shard its own
    disk, so the ``shards`` region's speedup (serial time over
    makespan) approaches the shard count.  Each row's ``extra`` carries
    the region speedup, the fragment count, and the reconciliation
    problem count — always 0: per-task lane time must equal each
    fragment executor's own elapsed time to the last bit, and fragment
    row counts must sum to the statement total.
    """
    from repro.shard import sharded_bulk_delete
    from repro.workload.generator import build_sharded_workload

    series = Series(
        title="Shard scaling: 4 range shards, 15% deletes, "
        "dedicated lanes",
        x_label="lanes",
        x_values=[1, 2, 4],
    )
    series.rows = {"sharded": []}
    config = WorkloadConfig(
        record_count=record_count,
        index_columns=("A",),
        memory_paper_mb=5.0,
    )
    template = build_sharded_workload(config, shards=4)
    keys = template.delete_keys(0.15)
    for lanes in series.x_values:
        wl = template.fork()
        wl.reset_measurements()
        db = wl.db
        db.observe()
        try:
            result = sharded_bulk_delete(
                db, "R", "A", keys, lanes=lanes, contention="dedicated"
            )
        finally:
            db.unobserve()
        problems = result.reconciliation_problems()
        if problems:
            raise RuntimeError(
                "sharded delete rollups failed to reconcile: "
                + "; ".join(problems)
            )
        sim_seconds = db.clock.now_seconds
        region = result.region
        series.rows["sharded"].append(RunResult(
            approach="sharded", fraction=0.15,
            records_deleted=result.records_deleted,
            sim_seconds=sim_seconds,
            scaled_minutes=sim_seconds / 60.0 * config.scale_factor,
            io=db.disk.stats.snapshot(),
            extra={
                "region_speedup": (
                    region.speedup if region is not None else 1.0
                ),
                "fragments": float(len(result.fragment_results)),
                "reconcile_problems": float(len(problems)),
            },
        ))
    return series


def fig_lsm_vs_vertical(record_count: int = DEFAULT_RECORDS) -> Series:
    """Extension: the comparison the 2001 paper could not run.

    The paper's §6 future work asks how bulk deletes fare on storage
    that does not update in place.  Both engines here run on the *same*
    simulated disk model: the heap + B+-tree side executes the paper's
    winning sort/merge vertical plan (1 unclustered index on A, 5
    paper-MB of memory); the LSM side loads the identical rows (keyed
    by A) into leveled runs and deletes the identical key list — first
    write-only (tombstones land, reclamation deferred), then with the
    FADE delete-aware compactions the plan schedules.

    Three claims become checkable rows:

    * tombstone writes are cheap — the write-only delete costs far less
      than the vertical plan at every fraction, because a delete is a
      log append instead of a read-modify-write of heap and leaf pages;
    * reclamation is the deferred price — tombstones leave lookup
      amplification behind (extra run probes and pages per point read,
      measured on a fixed key sample before and after FADE), and FADE's
      compactions buy it back;
    * the accounting closes exactly — every physical page write of the
      LSM delete window reconciles against the tree's own counters
      (``LsmStats.page_writes``), and both engines' I/O comes off one
      ``DiskStats`` ledger.

    Each LSM row's ``extra`` carries the tombstone mix, the compaction
    volume, the lookup amplification sample, and the reconciliation
    problem count (always 0).
    """
    from repro.catalog.database import Database
    from repro.catalog.schema import Attribute, TableSchema
    from repro.lsm import LsmConfig, lsm_bulk_delete

    series = Series(
        title="LSM vs vertical: tombstone deletes + FADE against the "
        "sort/merge heap plan, same disk model",
        x_label="% deleted",
        x_values=[5, 10, 15, 20],
    )
    series.rows = {
        "bulk (heap)": [], "lsm write-only": [], "lsm + FADE": [],
    }
    config = WorkloadConfig(
        record_count=record_count,
        index_columns=("A",),
        memory_paper_mb=5.0,
    )
    pad = config.record_bytes - 8
    lsm_config = LsmConfig(memtable_entries=max(64, record_count // 64))

    def build_lsm(values: List[int]) -> Database:
        """The heap's rows keyed by A, loaded and measurements zeroed."""
        db = Database(
            page_size=config.page_size, memory_bytes=config.memory_bytes
        )
        db.create_table(
            TableSchema.of(
                "R", [Attribute.int_("A"), Attribute.char("PAD", pad)]
            ),
            engine="lsm",
            lsm_config=lsm_config,
        )
        db.load_table("R", [(a, "x" * 8) for a in values])
        db.flush()
        db.clock.reset()
        db.disk.stats = type(db.disk.stats)()
        return db

    def probe_cost(db: Database, sample: List[int]) -> Dict[str, float]:
        """Pages and runs per point lookup over a fixed key sample."""
        tree = db.table("R").lsm
        assert tree is not None
        before = tree.stats.snapshot()
        for key in sample:
            tree.get(key)
        delta = tree.stats.delta_since(before)
        return {
            "pages": delta.lookup_pages_read / max(1, delta.lookups),
            "runs": delta.lookup_runs_probed / max(1, delta.lookups),
        }

    heap = build_workload(config)
    values = list(heap.a_values)
    lsm = build_lsm(values)
    for pct in series.x_values:
        fraction = pct / 100.0
        keys = heap.delete_keys(fraction)
        survivors = [a for a in values if a not in set(keys)]
        sample = survivors[:: max(1, len(survivors) // 64)][:64]

        series.rows["bulk (heap)"].append(
            run_approach(
                "bulk", config, fraction, workload=heap.fork(), observe=True
            )
        )

        for name, compact in (("lsm write-only", False),
                              ("lsm + FADE", True)):
            db = lsm.fork()
            db.observe()
            try:
                before_probe = probe_cost(db, sample)
                db.clock.reset()
                db.disk.stats = type(db.disk.stats)()
                tree = db.table("R").lsm
                assert tree is not None
                stats_before = tree.stats.snapshot()
                result = lsm_bulk_delete(
                    db, "R", "A", keys, compact=compact
                )
                stats_delta = tree.stats.delta_since(stats_before)
                after_probe = probe_cost(db, sample)
            finally:
                db.unobserve()
            problems = []
            if result.io.writes != stats_delta.page_writes:
                problems.append(
                    f"disk wrote {result.io.writes} pages but the tree "
                    f"accounts for {stats_delta.page_writes}"
                )
            if result.records_deleted != len(set(keys)):
                problems.append(
                    f"deleted {result.records_deleted} != "
                    f"{len(set(keys))} targeted"
                )
            if problems:
                raise RuntimeError(
                    "LSM delete failed to reconcile: "
                    + "; ".join(problems)
                )
            sim_seconds = result.elapsed_ms / 1000.0
            series.rows[name].append(RunResult(
                approach=name, fraction=fraction,
                records_deleted=result.records_deleted,
                sim_seconds=sim_seconds,
                scaled_minutes=sim_seconds / 60.0 * config.scale_factor,
                io=result.io,
                extra={
                    "point_tombstones": float(result.point_tombstones),
                    "range_tombstones": float(result.range_tombstones),
                    "flushes": float(result.flushes),
                    "compactions": float(result.compactions),
                    "tombstones_dropped": float(result.tombstones_dropped),
                    "compaction_pages_written": float(
                        result.compaction_pages_written
                    ),
                    "lookup_pages_before": before_probe["pages"],
                    "lookup_pages_after": after_probe["pages"],
                    "lookup_runs_before": before_probe["runs"],
                    "lookup_runs_after": after_probe["runs"],
                    "page_writes": float(stats_delta.page_writes),
                    "reconcile_problems": float(len(problems)),
                },
            ))
    return series


def media_retry_latency(recover_after: int) -> Dict[str, float]:
    """Simulated latency of one transient-faulted read (default policy).

    A page whose reads fail until the ``recover_after``-th attempt is
    read through :class:`repro.media.MediaRecovery`; the return value
    reports the end-to-end simulated latency next to a clean read of
    the same page — the retry *tail* the backoff policy buys.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import TRANSIENT, FaultPlan
    from repro.media import MediaRecovery
    from repro.storage.disk import SimulatedDisk

    # Raw page I/O by design: the tail being priced is the *media*
    # retry path underneath the pool, with no frame cache in the way.
    disk = SimulatedDisk()
    page = disk.allocate_page(disk.create_file())
    disk.write_page(page, bytes(disk.page_size))  # lint: allow(raw-page-io)
    disk.read_page(page)  # position the head  # lint: allow(raw-page-io)
    clean_start = disk.clock.now_ms
    disk.read_page(page)  # lint: allow(raw-page-io)
    clean_ms = disk.clock.now_ms - clean_start
    media = MediaRecovery(disk)
    plan = FaultPlan(
        read_fault=TRANSIENT, read_fault_page=page,
        read_recover_after=recover_after,
    )
    start = disk.clock.now_ms
    with FaultInjector(plan).armed(disk):
        media.read(page)
    return {
        "clean_ms": clean_ms,
        "faulted_ms": disk.clock.now_ms - start,
        "backoff_ms": media.stats.backoff_ms,
        "retries": float(media.stats.retries),
    }


ALL_EXPERIMENTS = {
    "figure_1": figure_1,
    "figure_7": figure_7,
    "figure_8": figure_8,
    "table_1": table_1,
    "figure_9": figure_9,
    "figure_10": figure_10,
    "fig_parallel_speedup": fig_parallel_speedup,
    "fig_scrub_overhead": fig_scrub_overhead,
    "fig_retention_overhead": fig_retention_overhead,
    "fig_oltp_interference": fig_oltp_interference,
    "fig_shard_scaling": fig_shard_scaling,
    "fig_lsm_vs_vertical": fig_lsm_vs_vertical,
}
