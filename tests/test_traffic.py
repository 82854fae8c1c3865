"""The OLTP traffic harness (:mod:`repro.workload.traffic`).

The methodology's teeth: fixed seeds fix entire timelines bit-for-bit;
the exact latency histograms merge losslessly; a single session with no
delete reproduces the single-user primitive costs to the last bit; and
every run reconciles its histograms, spans and ``oltp.*`` metrics with
no epsilon anywhere.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.observer import Observer
from repro.workload.generator import WorkloadConfig, build_workload
from repro.workload.traffic import (
    STALL_LANE,
    STALL_LOCK,
    LatencyHistogram,
    TrafficConfig,
    apply_pad_update,
    apply_plain_insert,
    apply_point_read,
    build_interference_report,
    make_strategy,
    run_interference_comparison,
    run_oltp,
)

SMALL = dict(record_count=600, index_columns=("A", "B"))


def small_workload():
    return build_workload(WorkloadConfig(**SMALL))


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ReproError):
        TrafficConfig(sessions=0)
    with pytest.raises(ReproError):
        TrafficConfig(think_ms=0.0)
    with pytest.raises(ReproError):
        TrafficConfig(read_fraction=0.8, update_fraction=0.4)


def test_session_rngs_are_stable_and_distinct():
    config = TrafficConfig(seed=7)
    a = [config.session_rng(0).random() for _ in range(4)]
    b = [config.session_rng(0).random() for _ in range(4)]
    c = [config.session_rng(1).random() for _ in range(4)]
    assert a == b
    assert a != c


# ----------------------------------------------------------------------
# exact histograms
# ----------------------------------------------------------------------
def test_percentile_nearest_rank_exact():
    hist = LatencyHistogram()
    for v in [10.0, 20.0, 30.0, 40.0, 50.0]:
        hist.record(v)
    assert hist.percentile(50) == 30.0
    assert hist.percentile(20) == 10.0
    assert hist.percentile(20.0001) == 20.0
    assert hist.percentile(100) == 50.0
    assert hist.percentile(99) == 50.0
    assert hist.max_ms == 50.0  # lint: allow(float-cost-eq)
    with pytest.raises(ReproError):
        hist.percentile(0)
    with pytest.raises(ReproError):
        LatencyHistogram().record(-1.0)
    assert LatencyHistogram().percentile(50) == 0.0


@given(
    st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            max_size=30,
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_merged_per_session_histograms_equal_global(sessions):
    """Merging per-session histograms reproduces the global one
    exactly, whatever the values and however they are distributed."""
    per_session = []
    global_hist = LatencyHistogram()
    for values in sessions:
        hist = LatencyHistogram()
        for v in values:
            hist.record(v)
            global_hist.record(v)
        per_session.append(hist)
    merged = LatencyHistogram.merged(per_session)
    assert merged == global_hist
    assert merged.count == global_hist.count
    # total_ms is fsum over the sorted multiset: order-independent, so
    # the merge direction cannot perturb it.  Exactness is the point.
    assert merged.total_ms == global_hist.total_ms  # lint: allow(float-cost-eq)
    for p in (50, 95, 99, 100):
        assert merged.percentile(p) == global_hist.percentile(p)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=50,
    ),
    st.floats(min_value=0.001, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_percentile_matches_reference(values, p):
    """Nearest-rank percentile agrees with the textbook definition on
    the sorted list of raw values."""
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    assert hist.percentile(p) == ordered[rank - 1]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_fixed_seed_fixes_the_entire_timeline():
    config = TrafficConfig(sessions=3, ops_per_session=8, seed=99)
    runs = []
    for _ in range(2):
        result = run_oltp(small_workload(), config, strategy="sidefile")
        runs.append(result)
    a, b = runs
    assert len(a.ops) == len(b.ops) == config.total_ops
    for x, y in zip(a.ops, b.ops):
        # Bit-identical replay is the property under test.
        assert (
            x.session, x.seq, x.kind, x.key, x.values,
            x.arrival_ms, x.stall_from_ms, x.stall_to_ms,
            x.start_ms, x.end_ms, x.stall_kind, x.phase,
        ) == (
            y.session, y.seq, y.kind, y.key, y.values,
            y.arrival_ms, y.stall_from_ms, y.stall_to_ms,
            y.start_ms, y.end_ms, y.stall_kind, y.phase,
        )
    assert a.global_hist == b.global_hist
    for p in (50, 95, 99):
        assert a.global_hist.percentile(p) == b.global_hist.percentile(p)
    assert [(s.label, s.start_ms, s.end_ms) for s in a.slices] == [
        (s.label, s.start_ms, s.end_ms) for s in b.slices
    ]


def test_different_seeds_differ():
    base = dict(sessions=3, ops_per_session=8)
    a = run_oltp(small_workload(), TrafficConfig(seed=1, **base),
                 strategy=None)
    b = run_oltp(small_workload(), TrafficConfig(seed=2, **base),
                 strategy=None)
    assert [op.arrival_ms for op in a.ops] != [op.arrival_ms for op in b.ops]


# ----------------------------------------------------------------------
# single-user regression: the harness adds nothing
# ----------------------------------------------------------------------
def test_single_session_no_delete_matches_primitive_replay():
    """sessions=1 with no delete is exactly the single-user system:
    replaying the same op sequence with the bare primitives on an
    identical workload reproduces every service time bit-for-bit."""
    config = TrafficConfig(sessions=1, ops_per_session=25, seed=5)
    result = run_oltp(small_workload(), config, strategy=None)
    assert len(result.ops) == 25
    for op in result.ops:
        assert op.stall_kind is None
        assert op.delete_stall_ms == 0.0  # lint: allow(float-cost-eq)
        assert op.peer_wait_ms == 0.0  # lint: allow(float-cost-eq)
        assert op.start_ms == op.arrival_ms  # lint: allow(float-cost-eq)

    replay = small_workload()
    db = replay.db
    for op in result.ops:
        # Advance to the op's arrival exactly as the driver's idle path
        # does (now + (arrival - now) from the previous op's end), so
        # identical charge sequences land on identical timestamps —
        # the harness may not add a millisecond, to the last bit.
        db.clock.advance_ms(op.arrival_ms - db.clock.now_ms)
        assert db.clock.now_ms == op.start_ms  # lint: allow(float-cost-eq)
        if op.kind == "read":
            apply_point_read(db, "R", "A", op.key)
        elif op.kind == "update":
            apply_pad_update(db, "R", "A", op.key)
        else:
            apply_plain_insert(db, "R", op.values)
        assert db.clock.now_ms == op.end_ms  # lint: allow(float-cost-eq)

    # And the final logical states agree row for row.
    original = sorted(v for _, v in result.workload.db.scan("R"))
    replayed = sorted(v for _, v in db.scan("R"))
    assert original == replayed


# ----------------------------------------------------------------------
# stall attribution
# ----------------------------------------------------------------------
def run_contended(strategy):
    workload = build_workload(WorkloadConfig(record_count=900,
                                             index_columns=("A", "B")))
    Observer.attach(workload.db)
    config = TrafficConfig(sessions=5, ops_per_session=18, seed=1042)
    return run_oltp(workload, config, strategy=strategy, fraction=0.2)


def test_sidefile_stall_attribution_and_reconcile():
    result = run_contended("sidefile")
    assert result.records_deleted > 0
    kinds = {s.stall_kind for s in result.slices}
    assert kinds == {STALL_LOCK, STALL_LANE}
    # Exactly one critical (lock) slice; its waiters are lock stalls.
    lock_slices = [s for s in result.slices if s.stall_kind == STALL_LOCK]
    assert len(lock_slices) == 1
    stalled = [op for op in result.ops if op.stall_kind is not None]
    assert stalled, "a contended run must stall someone"
    for op in stalled:
        # The attributed interval is a genuine slice overlap.
        assert op.arrival_ms <= op.stall_from_ms <= op.stall_to_ms
        assert op.stall_to_ms <= op.start_ms
        matching = [
            s for s in result.slices
            if s.end_ms == op.stall_to_ms  # lint: allow(float-cost-eq)
            and s.stall_kind == op.stall_kind
        ]
        assert matching, "stall interval must end at a slice boundary"
    assert result.reconcile(result.workload.db.obs) == []


def test_chunked_stall_attribution_and_reconcile():
    result = run_contended("chunked")
    assert result.records_deleted > 0
    # Every chunk slice is engine occupancy, never a table lock.
    assert {s.stall_kind for s in result.slices} == {STALL_LANE}
    assert all(op.stall_kind != STALL_LOCK for op in result.ops)
    assert any(op.stall_kind == STALL_LANE for op in result.ops)
    assert result.reconcile(result.workload.db.obs) == []


def test_phases_partition_the_ops():
    result = run_contended("sidefile")
    phases = [result.ops_in_phase(p) for p in ("before", "during", "after")]
    assert sum(len(ops) for ops in phases) == len(result.ops)
    assert all(len(ops) > 0 for ops in phases)
    submit, end = result.delete_submit_ms, result.delete_end_ms
    assert submit is not None and end is not None and submit < end
    for op in result.ops_in_phase("before"):
        assert op.end_ms <= submit
    for op in result.ops_in_phase("after"):
        assert op.arrival_ms >= end


# ----------------------------------------------------------------------
# the interference report + comparison
# ----------------------------------------------------------------------
@pytest.mark.parametrize("records, sessions, ops, fraction", [
    (900, 4, 15, 0.2),
    # Enough sessions and ops that both stall kinds occur and the
    # percentile ordering is meaningful.
    (1200, 6, 30, 0.15),
])
def test_interference_report_renders_and_reconciles(
    records, sessions, ops, fraction
):
    results = run_interference_comparison(
        record_count=records, sessions=sessions, ops_per_session=ops,
        seed=1042, fraction=fraction,
    )
    for name, result in results.items():
        assert result.reconcile(result.workload.db.obs) == []
        report = build_interference_report(result)
        text = report.render()
        assert f"strategy={name}" in text
        assert "stalls: lock" in text
        assert "buffer pressure" in text
        assert report.slice_count == len(result.slices)
        # The stall totals decompose the recorded waits exactly.
        assert report.stall_lock_ms == math.fsum(  # lint: allow(float-cost-eq)
            op.delete_stall_ms for op in result.ops
            if op.stall_kind == STALL_LOCK
        )
    # Identical traffic, identical rows deleted — only the interference
    # differs between the strategies.
    assert (
        results["sidefile"].records_deleted
        == results["chunked"].records_deleted
        > 0
    )
    # The paper's §3 case on the user-visible tail: the side-file plan
    # stalls traffic less than chunked deletes do.
    p99 = {
        name: result.phase_hist("during").percentile(99)
        for name, result in results.items()
    }
    assert p99["sidefile"] < p99["chunked"]


def test_make_strategy_names():
    assert make_strategy(None) is None
    assert make_strategy("sidefile").name == "sidefile"
    assert make_strategy("chunked", chunk_rows=16).chunk_rows == 16
    with pytest.raises(ReproError):
        make_strategy("bogus")


def test_inserts_during_propagation_survive():
    """Inserts routed through the §3 side-file while indexes are
    off-line are present and indexed once the delete completes."""
    result = run_contended("sidefile")
    inserted = [
        op.values for op in result.ops
        if op.kind == "insert" and op.values is not None
    ]
    assert inserted
    db = result.workload.db
    rows = {v for _, v in db.scan("R")}
    for values in inserted:
        assert tuple(values) in rows
    # Index agreement over the final state (entry sets match the heap).
    table = db.table("R")
    for name, ix in table.indexes.items():
        expected = sorted(
            (ix.key_for(v, table.schema), rid.pack())
            for rid, v in db.scan("R")
        )
        assert sorted(ix.tree.items()) == expected, name
