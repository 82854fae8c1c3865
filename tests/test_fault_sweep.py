"""End-to-end tests for the crash-point sweep (:mod:`repro.faults.sweep`).

These are the teeth of the fault-injection subsystem: every durable
event of a recoverable bulk delete gets its own crash + recover run,
and the recovered database must be indistinguishable from the
fault-free oracle.  A small scenario keeps the full sweep fast enough
for tier-1; CI runs a larger bounded sweep via ``repro faultsweep``.
"""

import dataclasses

import pytest

from repro.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.faults.sweep import (
    SweepScenario,
    capture_state,
    crash_point_sweep,
    integrity_problems,
)
from repro.recovery.restart import RecoverableBulkDelete, recover

SMALL = SweepScenario(records=24, delete_fraction=0.4, child_rows=4)


def test_scenario_builds_are_deterministic():
    a, b = SMALL.build(), SMALL.build()
    assert a.keys == b.keys
    assert capture_state(a.db) == capture_state(b.db)


def test_oracle_run_is_consistent():
    case = SMALL.build()
    RecoverableBulkDelete(case.db, "R", "A", case.keys, case.log).run()
    assert integrity_problems(case.db, case.registry, case.keys) == []


def test_integrity_problems_detects_damage():
    case = SMALL.build()
    table = case.db.table("R")
    tree = table.index("I_R_A").tree
    # Lie about the entry count: reconciliation must notice.
    tree._entry_count += 5
    problems = integrity_problems(case.db)
    assert any("entry_count" in p for p in problems)


def test_full_sweep_every_durable_event():
    report = crash_point_sweep(SMALL, double_crash=False)
    assert report.durable_events > 10
    assert len(report.points) == report.durable_events
    assert report.ok, report.summary()


def test_sweep_with_double_crashes():
    report = crash_point_sweep(SMALL, max_points=6, double_samples=2)
    singles = [o for o in report.outcomes if o.second_event is None]
    doubles = [o for o in report.outcomes if o.second_event is not None]
    assert len(singles) == 6
    assert doubles, "no crash-during-recovery runs happened"
    assert report.ok, report.summary()


def test_sweep_with_dropped_wal_tail():
    report = crash_point_sweep(
        SMALL, max_points=8, double_crash=False, wal_tail="drop"
    )
    assert report.ok, report.summary()


def test_sweep_with_torn_wal_tail():
    report = crash_point_sweep(
        SMALL, max_points=8, double_crash=False, wal_tail="torn"
    )
    assert report.ok, report.summary()


def test_sweep_with_torn_page_writes():
    # torn_writes implies full-page-write logging, so every torn page
    # is repairable from its logged pre-image.
    report = crash_point_sweep(
        SMALL, max_points=8, double_crash=False, torn_writes=True
    )
    assert report.ok, report.summary()


def test_crash_between_structure_done_and_checkpoint():
    """Regression for the bug the sweep flushed out: a crash between a
    stage's ``structure_done`` append and its ``checkpoint`` append
    (two separate durable events) used to make recovery skip the stage
    while restoring *older* metadata — stale tree roots, resurrected
    entries.  The done-requires-checkpoint pairing re-runs the stage
    instead; redo is idempotent, so the state matches the oracle."""
    case = SMALL.build()
    counter = FaultInjector()
    RecoverableBulkDelete(
        case.db, "R", "A", case.keys, case.log, faults=counter
    ).run()
    oracle = capture_state(case.db)
    # Find the first post-initial structure_done WAL event.
    target = None
    done_seen = 0
    for ordinal, (kind, detail) in enumerate(counter.durable_events, 1):
        if kind == "wal" and detail == "structure_done":
            done_seen += 1
            if done_seen == 2:  # skip the __initial__ checkpoint pair
                target = ordinal
                break
    assert target is not None
    case2 = SMALL.build()
    runner = RecoverableBulkDelete(
        case2.db, "R", "A", case2.keys, case2.log,
        faults=FaultInjector(FaultPlan(crash_after_event=target)),
    )
    with pytest.raises(SimulatedCrash):
        runner.run()
    # With the fix in place this recovers to the oracle...
    recover(case2.db, case2.log)
    assert capture_state(case2.db) == oracle
    assert integrity_problems(case2.db, case2.registry, case2.keys) == []


def test_report_summary_mentions_failures():
    from repro.faults.sweep import PointOutcome, SweepReport

    report = SweepReport(durable_events=3, points=[1, 2, 3])
    report.outcomes.append(PointOutcome(event=1, second_event=None))
    report.outcomes.append(
        PointOutcome(event=2, second_event=None, problems=["boom"])
    )
    assert not report.ok
    assert "FAIL at event 2: boom" in report.summary()


def test_faultsweep_cli_smoke(capsys):
    from repro.cli import main

    code = main([
        "faultsweep", "--max-points", "5", "--records", "24",
        "--no-double",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "failures: 0" in out


# ----------------------------------------------------------------------
# concurrent user traffic during the swept statement
# ----------------------------------------------------------------------
TRAFFIC = dataclasses.replace(SMALL, traffic_ops=5)


def test_traffic_schedule_is_deterministic_and_safe():
    a, b = TRAFFIC.build(), TRAFFIC.build()
    assert a.traffic_order == b.traffic_order
    assert len(a.traffic_order) == 5
    assert sum(len(ws) for ws in a.traffic.values()) == 5
    # Inserts use values disjoint from the generated data; deletes
    # target unreferenced survivors only (the FK must keep holding).
    survivors = {
        row[0] for _, row in a.db.scan("R")
    } - set(a.keys)
    referenced = {row[0] for _, row in a.db.scan("S")}
    for write in a.traffic_order:
        if write.op == "insert":
            assert write.values[0] not in survivors
        else:
            assert write.values[0] in survivors - referenced


def test_traffic_zero_keeps_classic_case():
    case = SMALL.build()
    assert case.traffic == {} and case.traffic_order == []


def test_lost_user_writes_detector():
    from repro.faults.sweep import lost_user_writes
    from repro.recovery.restart import apply_user_write

    case = TRAFFIC.build()
    write = next(w for w in case.traffic_order if w.op == "insert")
    apply_user_write(case.db, case.log, "R", write)
    assert lost_user_writes(case.db, case.log) == []
    # Losing the row's effect must be reported.
    for rid, row in case.db.scan("R"):
        if row == tuple(write.values):
            case.db.delete_record("R", rid)
            break
    problems = lost_user_writes(case.db, case.log)
    assert any("lost committed user insert" in p for p in problems)


def test_traffic_sweep_every_point_recovers_with_zero_lost_writes():
    report = crash_point_sweep(TRAFFIC, double_crash=False)
    assert report.durable_events > 10
    assert report.ok, report.summary()


def test_traffic_sweep_with_double_crashes_and_tail_loss():
    report = crash_point_sweep(TRAFFIC, max_points=4, double_samples=1)
    assert report.ok, report.summary()
    for tail in ("drop", "torn"):
        report = crash_point_sweep(
            TRAFFIC, max_points=4, double_crash=False, wal_tail=tail
        )
        assert report.ok, report.summary()


def test_faultsweep_cli_traffic_smoke(capsys):
    from repro.cli import main

    code = main([
        "faultsweep", "--max-points", "4", "--records", "24",
        "--no-double", "--traffic", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "failures: 0" in out
