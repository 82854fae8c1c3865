"""``Database.fork()``: a copy-on-write clone equals a fresh build.

The sweep kernel builds each scenario once and runs the oracle pass and
every crash / media point on a fork of that template, so a fork must be
*simulated-identical* to a fresh ``build()``: same disk counters, clock,
page bytes, checksums, access streams, pool LRU order and dirty frames,
and logical state — before the statement and after it, crash or not.
Forks share every page image with their template (the copy-on-write
part) and must still never see each other's writes.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Attribute, Database, TableSchema
from repro.errors import ForkError, ReproError
from repro.faults import kernel
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, SimulatedCrash
from repro.faults.sweep import (
    RecoverableStatement,
    SweepScenario,
    capture_state,
)
from repro.lsm.sweep import LsmSweepScenario
from repro.media import MediaRecovery
from repro.obs.observer import observed
from repro.retention.sweep import RetentionScenario, _JournaledRun
from repro.shard.faults import ShardSweepScenario


def physical(db: Database) -> dict:
    """Everything a statement's simulated cost or result can depend on."""
    disk, pool = db.disk, db.pool
    return {
        "stats": dict(vars(disk.stats)),
        "clock": db.clock.now_ms,
        "pages": dict(disk._pages),
        "checksums": dict(disk.checksums),
        "freed": disk.freed_page_ids(),
        "quarantined": sorted(disk.quarantined),
        "streams": dict(disk._last_access),
        "lru": list(pool._frames),
        "frames": {pid: bytes(f.data) for pid, f in pool._frames.items()},
        "dirty": [pid for pid, f in pool._frames.items() if f.dirty],
        "pool_stats": dict(vars(pool.stats)),
    }


def wal(case) -> list:
    log = getattr(case, "log", None)
    return [] if log is None else [
        (r.lsn, r.kind, r.payload) for r in log.records()
    ]


def family(name: str, seed: int, records: int):
    """``(statement, crash-shaping modifiers)`` per kernel scenario."""
    heap = SweepScenario(records=records, seed=seed)
    return {
        "heap": (RecoverableStatement(heap, False), {}),
        "heap-lanes4": (
            RecoverableStatement(
                SweepScenario(
                    records=records, seed=seed, lanes=4,
                    index_columns=("A", "B", "C"),
                ),
                False,
            ),
            {},
        ),
        "heap-traffic": (
            RecoverableStatement(
                SweepScenario(records=records, seed=seed, traffic_ops=6),
                False,
            ),
            {},
        ),
        "heap-torn": (RecoverableStatement(heap, True), {"torn_write": True}),
        "lsm": (LsmSweepScenario(records=records, seed=seed), {}),
        "shard": (ShardSweepScenario(records=records, seed=seed), {}),
        "retention": (_JournaledRun(RetentionScenario(seed=seed)), {}),
    }[name]


FAMILIES = (
    "heap", "heap-lanes4", "heap-traffic", "heap-torn",
    "lsm", "shard", "retention",
)


def issue(statement, case, crash_at, modifiers) -> bool:
    """Run the statement (crashing at ``crash_at`` if given); after a
    crash, restart.  True when a crash fired."""
    faults = None
    if crash_at is not None:
        faults = FaultInjector(
            FaultPlan(crash_after_event=crash_at, **modifiers)
        )
    try:
        statement.issue(case, faults, None)
    except SimulatedCrash:
        statement.restart(case, None)
        return True
    return False


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(FAMILIES),
    seed=st.integers(1, 50),
    records=st.sampled_from([32, 48, 64]),
    crash_at=st.one_of(st.none(), st.integers(1, 40)),
)
def test_a_fork_is_a_fresh_build_before_and_after_the_statement(
    name, seed, records, crash_at
):
    statement, modifiers = family(name, seed, records)
    template = statement.build()
    fresh = statement.build()
    fork = copy.deepcopy(template)
    assert fork.db is not template.db
    for page_id, image in template.db.disk._pages.items():
        assert fork.db.disk._pages[page_id] is image  # shared, not copied
    assert physical(fork.db) == physical(fresh.db)
    assert capture_state(fork.db) == capture_state(fresh.db)
    assert physical(fork.db) == physical(fresh.db)

    crashed = issue(statement, fork, crash_at, modifiers)
    assert issue(statement, fresh, crash_at, modifiers) == crashed
    assert physical(fork.db) == physical(fresh.db)
    assert wal(fork) == wal(fresh)
    assert statement.state(fork) == statement.state(fresh)
    assert capture_state(fork.db) == capture_state(fresh.db)
    assert physical(fork.db) == physical(fresh.db)


def test_a_fork_rebinds_every_reference_to_its_own_database():
    case = SweepScenario(records=24).build()
    fork = copy.deepcopy(case)
    db = fork.db
    assert fork.log.disk is db.disk
    assert fork.registry.db is db
    assert db.pool.disk is db.disk
    for table in db.catalog.tables():
        assert table.heap.pool is db.pool
        for index in table.indexes.values():
            assert index.tree.pool is db.pool
    # Immutable helpers are shared rather than copied.
    assert db.table("R").serializer is case.db.table("R").serializer


def test_fork_method_copies_a_bare_database():
    db = Database(page_size=512, memory_bytes=8 * 512)
    db.create_table(TableSchema.of("T", [Attribute.int_("K")]))
    db.load_table("T", [(k,) for k in range(40)])
    db.create_index("T", "K", unique=True)
    fork = db.fork()
    assert isinstance(fork, Database)
    assert physical(fork) == physical(db)
    assert list(fork.scan("T")) == list(db.scan("T"))


def test_writes_stay_on_their_own_side():
    template = SweepScenario(records=24).build()
    left, right = copy.deepcopy(template), copy.deepcopy(template)
    before = physical(template.db)

    # A write on one fork: invisible to the template and the sibling.
    left.db.insert("R", (9_999, 9_998, "x"))
    left.db.flush()
    left.log.append("note", where="left")
    assert physical(template.db) == before
    assert physical(right.db) == before
    assert len(template.log) == len(right.log) == 0
    assert (9_999, 9_998, "x") in [row for _, row in left.db.scan("R")]
    assert (9_999, 9_998, "x") not in [row for _, row in right.db.scan("R")]

    # ... and the reverse: a write on the template reaches no fork.
    right_before = physical(right.db)
    left_before = physical(left.db)
    page_id = template.db.table("R").heap.page_ids[0]
    with template.db.pool.pin(page_id) as pinned:
        pinned.data[-1] ^= 0xFF
        pinned.mark_dirty()
    template.db.flush()
    assert template.db.disk.durable_image(page_id) \
        != right.db.disk.durable_image(page_id)
    assert physical(right.db) == right_before
    assert physical(left.db) == left_before


@pytest.mark.parametrize("crash_at", [1, 5, 12, 20])
def test_a_point_on_a_fork_reproduces_on_a_fresh_build(crash_at):
    statement = RecoverableStatement(SweepScenario(records=32), True)
    modifiers = {"torn_write": True}
    oracle_case = statement.build()
    initial = statement.state(oracle_case)
    statement.issue(oracle_case, None, None)
    oracle = statement.state(oracle_case)

    template = statement.build()
    on_fork = copy.deepcopy(template)
    on_build = statement.build()
    outcomes = [
        kernel._crash_point(
            statement, case, modifiers, crash_at, None, initial, oracle
        )
        for case in (on_fork, on_build)
    ]
    assert outcomes[0].crash is not None
    assert outcomes[0] == outcomes[1]
    assert physical(on_fork.db) == physical(on_build.db)
    assert wal(on_fork) == wal(on_build)
    assert statement.state(on_fork) == statement.state(on_build)


# ----------------------------------------------------------------------
# refusal boundary: a fork is only taken between statements
# ----------------------------------------------------------------------
@pytest.fixture
def case():
    return SweepScenario(records=24).build()


def test_fork_error_is_a_repro_error():
    assert issubclass(ForkError, ReproError)


def test_refuses_with_an_observer_attached(case):
    with observed(case.db):
        with pytest.raises(ForkError, match="observer"):
            case.db.fork()
    case.db.fork()


def test_refuses_with_a_fault_injector_armed_on_the_disk(case):
    with FaultInjector().armed(case.db.disk, pool=case.db.pool):
        with pytest.raises(ForkError, match="fault injector"):
            case.db.fork()
    case.db.fork()


def test_refuses_with_a_fault_injector_armed_on_the_wal(case):
    with FaultInjector().armed(case.db.disk, log=case.log):
        with pytest.raises(ForkError, match="fault injector"):
            copy.deepcopy(case)
    # The WAL alone (no disk hook) is caught by the injector itself.
    case.log.fault_injector = FaultInjector()
    with pytest.raises(ForkError, match="fault injector"):
        copy.deepcopy(case)
    case.log.fault_injector = None
    copy.deepcopy(case)


def test_refuses_while_a_lane_is_active(case):
    case.db.disk.begin_lane(1)
    try:
        with pytest.raises(ForkError, match="lane 1"):
            case.db.fork()
    finally:
        case.db.disk.end_lane()
    case.db.fork()


def test_refuses_with_media_recovery_attached(case):
    with case.db.pool.attached(media=MediaRecovery(case.db.disk)):
        with pytest.raises(ForkError, match="media recovery"):
            case.db.fork()
    case.db.fork()


def test_refuses_while_a_frame_is_pinned(case):
    page_id = case.db.table("R").heap.page_ids[0]
    with case.db.pool.pin(page_id):
        with pytest.raises(ForkError, match=f"pages \\[{page_id}\\]"):
            case.db.fork()
    case.db.fork()
