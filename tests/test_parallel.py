"""Tests for multi-lane parallel execution (:mod:`repro.parallel`).

Covers the lane scheduler's simulated-time accounting (dedicated
makespan = max, shared makespan = sum, counters never rewound), the
executor integration (``lanes=1`` bit-identical to serial, parallel
runs logically identical and faster on dedicated lanes, slower on a
shared device), the planner's parallel cost terms, the new lint rules,
observability reconciliation over concurrent spans, and determinism of
the crash-point sweep under parallel index maintenance.
"""
# Lane accounting is pinned with exact equality on purpose
# (serial must be bit-identical, rollups exact):
# lint: allow-file(float-cost-eq)

import dataclasses

import pytest

from repro.analysis.code_lint import lint_source
from repro.analysis.findings import Severity
from repro.analysis.plan_lint import lint_plan
from repro.core.executor import (
    BulkDeleteOptions,
    bulk_delete,
    execute_fragment,
    execute_plan,
)
from repro.core.planner import (
    choose_plan,
    estimate_vertical_ms,
    estimate_vertical_parallel_ms,
    makespan_ms,
)
from repro.core.plans import BdMethod, BulkDeletePlan
from repro.errors import ReproError, StorageError
from repro.faults.sweep import (
    SweepScenario,
    capture_state,
    crash_point_sweep,
    integrity_problems,
)
from repro.obs.schema import validate_span
from repro.parallel import (
    CONTENTION_MODES,
    DEDICATED,
    SHARED,
    LaneScheduler,
    LaneTask,
)
from repro.recovery.restart import RecoverableBulkDelete
from repro.storage.disk import DiskStats, SimulatedDisk
from repro.txn.coordinator import BulkDeleteCoordinator
from repro.workload.generator import WorkloadConfig, build_workload


# ---------------------------------------------------------------------------
# scheduler units (bare disk, synthetic tasks)
# ---------------------------------------------------------------------------
def make_disk():
    return SimulatedDisk(page_size=512)


def reader_task(disk, name, pages, estimated=0.0, target=None):
    def run():
        for pid in pages:
            # Raw reads keep the fixture's I/O pattern exact.
            disk.read_page(pid)  # lint: allow(raw-page-io)
        return len(pages)

    return LaneTask(
        name=name, run=run, estimated_ms=estimated, target=target
    )


def fresh_scan_ms(disk, n_pages):
    """Serial cost of scanning ``n_pages`` fresh contiguous pages."""
    p = disk.parameters
    return p.random_ms(disk.page_size) + (n_pages - 1) * p.sequential_ms(
        disk.page_size
    )


def test_dedicated_makespan_is_max_not_sum():
    disk = make_disk()
    f1, f2 = disk.create_file(), disk.create_file()
    p1 = disk.allocate_pages(f1, 8)
    p2 = disk.allocate_pages(f2, 4)
    sched = LaneScheduler(disk, lanes=2, contention=DEDICATED)
    report = sched.run_region(
        "r",
        [
            reader_task(disk, "big", p1, estimated=8.0),
            reader_task(disk, "small", p2, estimated=4.0),
        ],
    )
    big, small = fresh_scan_ms(disk, 8), fresh_scan_ms(disk, 4)
    assert report.serial_ms == pytest.approx(big + small)
    assert report.makespan_ms == pytest.approx(max(big, small))
    assert disk.clock.now_ms == pytest.approx(max(big, small))
    assert report.speedup == pytest.approx((big + small) / big)
    # Results come back in submission order regardless of LPT order.
    assert report.results() == [8, 4]
    assert report.reconciliation_problems() == []


def test_shared_lanes_bill_random_and_serialize():
    disk = make_disk()
    f1, f2 = disk.create_file(), disk.create_file()
    p1 = disk.allocate_pages(f1, 6)
    p2 = disk.allocate_pages(f2, 6)
    sched = LaneScheduler(disk, lanes=2, contention=SHARED)
    report = sched.run_region(
        "r",
        [
            reader_task(disk, "a", p1, estimated=6.0),
            reader_task(disk, "b", p2, estimated=6.0),
        ],
    )
    rand = disk.parameters.random_ms(disk.page_size)
    # Every access is billed random; the device serializes the lanes,
    # so the region makespan is the *sum* of the task busy times.
    assert report.io.random_reads == 12
    assert report.io.sequential_reads == 0
    assert report.makespan_ms == pytest.approx(12 * rand)
    assert disk.clock.now_ms == pytest.approx(12 * rand)
    assert report.speedup == pytest.approx(1.0)
    assert report.reconciliation_problems() == []


def test_shared_single_task_keeps_discounts():
    # Contention needs >1 task actually interleaving; one task on a
    # shared device is just a serial run and keeps its discounts.
    disk = make_disk()
    f1 = disk.create_file()
    pages = disk.allocate_pages(f1, 6)
    sched = LaneScheduler(disk, lanes=2, contention=SHARED)
    report = sched.run_region("r", [reader_task(disk, "only", pages)])
    assert report.io.sequential_reads == 5
    assert report.makespan_ms == pytest.approx(fresh_scan_ms(disk, 6))


def test_empty_region_is_a_noop():
    disk = make_disk()
    sched = LaneScheduler(disk, lanes=4)
    report = sched.run_region("empty", [])
    assert disk.clock.now_ms == 0.0
    assert report.makespan_ms == 0.0
    assert report.speedup == 1.0
    assert report.results() == []


def test_scheduler_rejects_bad_arguments():
    disk = make_disk()
    with pytest.raises(ReproError):
        LaneScheduler(disk, lanes=0)
    with pytest.raises(ReproError):
        LaneScheduler(disk, lanes=2, contention="raid5")
    assert set(CONTENTION_MODES) == {DEDICATED, SHARED}


def test_lanes_do_not_nest():
    disk = make_disk()
    disk.begin_lane(0)
    with pytest.raises(StorageError):
        disk.begin_lane(1)
    disk.end_lane()


def test_lane_assignment_replays_with_same_seed():
    def run_once(seed):
        disk = make_disk()
        files = [disk.create_file() for _ in range(5)]
        pages = [disk.allocate_pages(f, 3) for f in files]
        sched = LaneScheduler(disk, lanes=3, seed=seed)
        # Equal (zero) estimates: every assignment is a tie-break.
        report = sched.run_region(
            "r",
            [reader_task(disk, f"t{i}", p) for i, p in enumerate(pages)],
        )
        return [
            (t.index, t.lane, t.start_ms, t.end_ms) for t in report.tasks
        ]

    assert run_once(7) == run_once(7)
    assert run_once(0) == run_once(0)


def test_counters_are_never_rewound():
    # The clock rewinds between lanes; the counters must not.  The
    # region's global delta is the exact sum of the task deltas, and
    # total io_time_ms exceeds the (parallel) clock advance.
    disk = make_disk()
    f1, f2 = disk.create_file(), disk.create_file()
    p1 = disk.allocate_pages(f1, 8)
    p2 = disk.allocate_pages(f2, 8)
    sched = LaneScheduler(disk, lanes=2)
    report = sched.run_region(
        "r",
        [
            reader_task(disk, "a", p1, estimated=8.0),
            reader_task(disk, "b", p2, estimated=8.0),
        ],
    )
    task_total = DiskStats.merged(t.io for t in report.tasks)
    assert task_total == report.io
    assert report.io.reads == 16
    assert disk.stats.reads == 16
    assert report.io.io_time_ms > disk.clock.now_ms


def test_lane_rollup_does_not_double_count_chained_streams():
    # Regression for the rollup-boundary bug: a sequential stream that
    # straddles a begin_lane/end_lane boundary must be classified once
    # and tallied identically into the global and the lane sinks — the
    # lane rollup and the region delta agree field by field, and the
    # continuation access right after the boundary keeps its discount.
    disk = make_disk()
    f1 = disk.create_file()
    pages = disk.allocate_pages(f1, 10)
    sched = LaneScheduler(disk, lanes=1)
    report = sched.run_region(
        "r",
        [
            reader_task(disk, "first-half", pages[:5], target="R"),
            reader_task(disk, "second-half", pages[5:], target="R"),
        ],
    )
    # One random (cold start), then 9 sequential continuations — the
    # 6th read continues the stream across the task boundary.
    assert report.io.random_reads == 1
    assert report.io.sequential_reads == 9
    assert report.lane_io[0] == report.io
    assert report.reconciliation_problems() == []


def test_diskstats_merge_is_fieldwise_and_ignores_strays():
    a = DiskStats(reads=3, sequential_reads=2, random_reads=1,
                  io_time_ms=5.0)
    b = DiskStats(reads=1, random_reads=1, io_time_ms=2.5)
    b.stray = "poked"  # must not leak into (or crash) the merge
    merged = DiskStats.merged([a, b])
    assert merged.reads == 4
    assert merged.random_reads == 2
    assert merged.sequential_reads == 2
    assert merged.io_time_ms == pytest.approx(7.5)
    assert not hasattr(DiskStats(), "stray")


# ---------------------------------------------------------------------------
# executor integration
# ---------------------------------------------------------------------------
SMALL = WorkloadConfig(
    record_count=400, index_columns=("A", "B", "C"), memory_paper_mb=5.0
)


def run_small_bulk(options=None, observe=False, fraction=0.2):
    wl = build_workload(SMALL)
    keys = wl.delete_keys(fraction)
    wl.reset_measurements()
    db = wl.db
    if observe:
        db.observe()
    result = bulk_delete(
        db, "R", "A", keys, options=options,
        prefer_method=BdMethod.SORT_MERGE, force_vertical=True,
    )
    if observe:
        db.unobserve()
    return db, result


def test_lanes_one_is_bit_identical_to_serial():
    db_serial, r_serial = run_small_bulk()
    db_one, r_one = run_small_bulk(options=BulkDeleteOptions(lanes=1))
    assert r_one.records_deleted == r_serial.records_deleted
    assert db_one.clock.now_ms == db_serial.clock.now_ms  # exact floats
    assert db_one.disk.stats == db_serial.disk.stats
    assert r_one.elapsed_ms == r_serial.elapsed_ms
    assert r_one.parallel_regions == []
    assert capture_state(db_one) == capture_state(db_serial)


def identity_case():
    """Driving index on A, a plain index on B, a unique one on C."""
    wl = build_workload(
        WorkloadConfig(record_count=400, index_columns=("A", "B"))
    )
    wl.db.create_index("R", "C", unique=True)
    keys = wl.delete_keys(0.2)
    wl.reset_measurements()
    return wl.db, keys


def test_executor_fragment_and_coordinator_walk_the_same_stages():
    # The §3 protocol's fixed sequence, spelled as the equivalent plan.
    plan = BulkDeletePlan.fixed(
        "R", "A", "I_R_A", probe=["I_R_C"], sweep=["I_R_B"]
    )
    # The coordinator has no reclaim step; everything before it must
    # cost the same.
    options = BulkDeleteOptions(reclaim_heap_pages=False)
    runs = []
    for execute in (execute_plan, execute_fragment):
        db, keys = identity_case()
        result = execute(db, plan, keys, options=options)
        runs.append((db, db.disk.stats.snapshot(), result.step_results))
    db, keys = identity_case()
    report = BulkDeleteCoordinator(db, "R", "A", keys).run_to_completion()
    db.flush()
    runs.append((
        db, db.disk.stats.snapshot(),
        report.critical_steps + report.propagation_steps,
    ))
    _, base_io, base_steps = runs[0]
    assert [s.structure for s in base_steps] == ["I_R_A", "I_R_C", "R", "I_R_B"]
    for _, io, steps in runs[1:]:
        assert io == base_io
        assert [(s.structure, s.deleted) for s in steps] == [
            (s.structure, s.deleted) for s in base_steps
        ]
    states = [capture_state(db) for db, _, _ in runs]
    assert states[1] == states[0] and states[2] == states[0]


@pytest.mark.parametrize("lanes", [2, 4])
@pytest.mark.parametrize(
    "method, tiny_memory",
    [
        (BdMethod.SORT_MERGE, False),
        (BdMethod.HASH, False),
        (BdMethod.PARTITIONED_HASH, False),
        (BdMethod.HASH, True),  # RID set overflows: steps partition
    ],
)
def test_lanes_return_step_results_in_serial_order(method, tiny_memory, lanes):
    def run(options):
        wl = build_workload(SMALL)
        keys = wl.delete_keys(0.2)
        db = wl.db
        plan = choose_plan(
            db, "R", "A", len(keys), prefer_method=method,
            force_vertical=True,
        )
        if tiny_memory:
            # Post-table hash steps only: probes before the table and
            # a hash table sweep must raise on overflow, not degrade.
            assert [s.method for s in plan.steps_after_table()] == [
                BdMethod.HASH, BdMethod.HASH
            ]
            plan.table_step().method = BdMethod.SORT_MERGE
            db.memory_bytes = 1024
        result = execute_plan(db, plan, keys, options, validate=False)
        return db, result

    db_serial, serial = run(BulkDeleteOptions())
    db_lanes, par = run(BulkDeleteOptions(lanes=lanes))
    assert [(s.structure, s.partitions, sorted(s.deleted))
            for s in par.step_results] == [
        (s.structure, s.partitions, sorted(s.deleted))
        for s in serial.step_results
    ]
    if tiny_memory:
        assert all(s.partitions > 1 for s in serial.step_results[-2:])
    assert par.records_deleted == serial.records_deleted == 80
    assert capture_state(db_lanes) == capture_state(db_serial)


def test_parallel_dedicated_same_outcome_faster():
    db_serial, r_serial = run_small_bulk()
    db_par, r_par = run_small_bulk(
        options=BulkDeleteOptions(lanes=4, contention=DEDICATED)
    )
    # Snapshot clocks first: capture_state scans and advances them.
    par_ms, serial_ms = db_par.clock.now_ms, db_serial.clock.now_ms
    assert r_par.records_deleted == r_serial.records_deleted
    assert capture_state(db_par) == capture_state(db_serial)
    # Same structures reported in the same (submission) order.
    assert [s.structure for s in r_par.step_results] == [
        s.structure for s in r_serial.step_results
    ]
    assert par_ms < serial_ms
    regions = {r.name: r for r in r_par.parallel_regions}
    assert set(regions) == {"pre-table", "index-maintenance"}
    for region in regions.values():
        assert region.reconciliation_problems() == []
        assert region.makespan_ms <= region.serial_ms + 1e-6


def test_parallel_shared_same_outcome_slower():
    db_serial, r_serial = run_small_bulk()
    db_shared, r_shared = run_small_bulk(
        options=BulkDeleteOptions(lanes=4, contention=SHARED)
    )
    shared_ms, serial_ms = db_shared.clock.now_ms, db_serial.clock.now_ms
    assert r_shared.records_deleted == r_serial.records_deleted
    assert capture_state(db_shared) == capture_state(db_serial)
    assert shared_ms > serial_ms
    for region in r_shared.parallel_regions:
        assert region.reconciliation_problems() == []


def test_parallel_trace_reconciles_and_validates():
    _, result = run_small_bulk(
        options=BulkDeleteOptions(lanes=4), observe=True
    )
    root = result.trace
    assert root is not None
    assert validate_span(root.to_dict()) == []
    spans = list(root.walk())
    parallel = [s for s in spans if s.kind == "parallel"]
    assert {s.name for s in parallel} == {
        "parallel[pre-table]", "parallel[index-maintenance]"
    }
    for region_span in parallel:
        lanes = [c for c in region_span.children if c.kind == "lane"]
        assert lanes
        # Lane children legitimately overlap in simulated time; the
        # union-based exclusive time must still be non-negative and
        # the children must fit inside the region.
        assert region_span.self_ms >= 0.0
        for lane_span in lanes:
            assert lane_span.start_ms >= region_span.start_ms - 1e-6
            assert lane_span.end_ms <= region_span.end_ms + 1e-6
        assert region_span.attrs["makespan_ms"] == pytest.approx(
            region_span.elapsed_ms
        )
        assert region_span.attrs["speedup"] >= 1.0
    # Counter reconciliation survives concurrency: the sum of every
    # span's exclusive I/O equals the root's inclusive I/O.
    assert sum(s.self_io.reads for s in spans) == root.io.reads
    assert sum(s.self_io.writes for s in spans) == root.io.writes


def test_pretable_overlap_needs_multiple_unique_probes():
    # With two lane spans in the index-maintenance region of a 4-lane
    # dedicated run over (B, C), the branches start at the same barrier
    # and genuinely overlap in simulated time.
    _, result = run_small_bulk(
        options=BulkDeleteOptions(lanes=4), observe=True
    )
    region = next(
        s for s in result.trace.walk()
        if s.name == "parallel[index-maintenance]"
    )
    lanes = [c for c in region.children if c.kind == "lane"]
    assert len(lanes) >= 2
    starts = {round(c.start_ms, 6) for c in lanes}
    assert len(starts) == 1  # all branches launch at the barrier


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------
def test_makespan_ms_lpt():
    assert makespan_ms([], 4) == 0.0
    assert makespan_ms([5.0, 1.0], 1) == 6.0
    # LPT on 2 lanes: 4 | 3+2, then 1 joins the 4-lane -> max 5.
    assert makespan_ms([4.0, 3.0, 2.0, 1.0], 2) == 5.0
    # More lanes than branches: the longest branch is the floor.
    assert makespan_ms([4.0, 3.0], 8) == 4.0


def test_estimate_vertical_parallel_terms():
    wl = build_workload(SMALL)
    db, table = wl.db, wl.db.table("R")
    n = 80
    serial = estimate_vertical_ms(db, table, n)
    same = estimate_vertical_parallel_ms(db, table, n, lanes=1)
    assert same.io_ms == serial.io_ms  # identical floats
    dedicated = estimate_vertical_parallel_ms(db, table, n, lanes=2)
    shared = estimate_vertical_parallel_ms(
        db, table, n, lanes=2, contention=SHARED
    )
    assert dedicated.io_ms < serial.io_ms
    assert shared.io_ms > serial.io_ms
    assert "makespan" in dedicated.detail
    assert "shared device" in shared.detail


def test_choose_plan_carries_parallel_settings():
    wl = build_workload(SMALL)
    plan = choose_plan(
        wl.db, "R", "A", 80, force_vertical=True, lanes=2
    )
    assert plan.lanes == 2
    assert plan.contention == DEDICATED
    assert any("costed for 2 dedicated" in n for n in plan.notes)
    text = plan.explain()
    assert "parallelism: 2 dedicated lanes" in text
    # Serial plans don't mention parallelism at all.
    serial_plan = choose_plan(wl.db, "R", "A", 80, force_vertical=True)
    assert "parallelism" not in serial_plan.explain()


# ---------------------------------------------------------------------------
# lint rules
# ---------------------------------------------------------------------------
def lane_safety(findings):
    return [f for f in findings if f.rule_id == "plan/parallel-lane-safety"]


def test_plan_lint_parallel_lane_safety():
    wl = build_workload(SMALL)
    db = wl.db
    plan = choose_plan(db, "R", "A", 80, force_vertical=True, lanes=2)
    assert lane_safety(lint_plan(plan, db)) == []

    plan.lanes = 0
    bad = lane_safety(lint_plan(plan, db))
    assert bad and bad[0].severity is Severity.ERROR

    plan.lanes = 2
    plan.contention = "raid5"
    bad = lane_safety(lint_plan(plan, db))
    assert bad and bad[0].severity is Severity.ERROR

    plan.contention = DEDICATED
    plan.steps.append(
        dataclasses.replace(plan.steps_after_table()[0])
    )
    dup = lane_safety(lint_plan(plan, db))
    assert any(
        f.severity is Severity.ERROR and "share" in f.message for f in dup
    )


def test_plan_lint_warns_on_idle_lanes():
    wl = build_workload(SMALL)
    db = wl.db
    plan = choose_plan(db, "R", "A", 80, force_vertical=True, lanes=64)
    findings = lane_safety(lint_plan(plan, db))
    assert findings and findings[0].severity is Severity.WARNING
    assert "idle" in findings[0].message


def test_code_lint_flags_clock_rewind_outside_parallel():
    src = "def f(clock):\n    clock.rewind_to(0.0)\n"
    findings = lint_source(src, filename="core/x.py")
    assert any(f.rule_id == "code/clock-rewind" for f in findings)
    # The lane scheduler itself is the one allowed caller.
    allowed = lint_source(src, filename="parallel/lanes.py",
                          in_parallel=True)
    assert not any(f.rule_id == "code/clock-rewind" for f in allowed)


# ---------------------------------------------------------------------------
# recovery + crash-point sweep determinism
# ---------------------------------------------------------------------------
WIDE = SweepScenario(
    records=24, delete_fraction=0.4, child_rows=4,
    index_columns=("A", "B", "C"),
)


def test_recoverable_parallel_matches_serial_state():
    serial_case = WIDE.build()
    RecoverableBulkDelete(
        serial_case.db, "R", "A", serial_case.keys, serial_case.log
    ).run()
    par_case = WIDE.build()
    RecoverableBulkDelete(
        par_case.db, "R", "A", par_case.keys, par_case.log, lanes=2
    ).run()
    assert integrity_problems(
        par_case.db, par_case.registry, par_case.keys
    ) == []
    assert capture_state(par_case.db) == capture_state(serial_case.db)


def test_parallel_crash_sweep_is_clean_and_replayable():
    scenario = dataclasses.replace(WIDE, lanes=2)
    first = crash_point_sweep(scenario, max_points=4, double_crash=False)
    assert first.ok, first.summary()
    again = crash_point_sweep(scenario, max_points=4, double_crash=False)
    # Seeded lane interleaving: the durable-event numbering (and so
    # every crash point) replays exactly.
    assert again.durable_events == first.durable_events
    assert again.points == first.points


def test_cli_faultsweep_accepts_lanes():
    from repro.cli import main

    rc = main([
        "faultsweep", "--records", "24", "--lanes", "2",
        "--max-points", "3", "--no-double",
    ])
    assert rc == 0
