"""Range-sharded tables: routing, planning, execution, and recovery.

The boundary cases the shard map must get right (a key exactly on a
bound belongs to the *upper* shard; an empty fragment is legal; one
shard routes everything), the execution equivalences (1 shard x 1 lane
is bit-identical to the unsharded executor — a hypothesis property,
not one example), hot-range taming, the catalog's sharded-DDL guards,
the ``plan/shard-coverage`` lint, the crash-mid-shard sweep, and the
``shard.*`` observability hooks.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Attribute, TableSchema
from repro.core.executor import bulk_delete
from repro.errors import CatalogError, PlanValidationError
from repro.faults.sweep import capture_state
from repro.shard import (
    HOT_POLICIES,
    ShardMap,
    ShardSweepScenario,
    choose_sharded_plan,
    shard_crash_sweep,
    sharded_bulk_delete,
)
from repro.shard.planning import HOT_SERIALIZE, HOT_SPLIT
from repro.workload.generator import (
    WorkloadConfig,
    build_sharded_workload,
    build_workload,
)

CONFIG = WorkloadConfig(
    record_count=400, index_columns=("A",), memory_paper_mb=5.0
)


# ---------------------------------------------------------------- map


def test_boundary_key_routes_to_upper_shard():
    smap = ShardMap(column="A", bounds=(10, 20))
    assert smap.shard_of(9) == 0
    assert smap.shard_of(10) == 1  # exactly on a bound: upper shard
    assert smap.shard_of(19) == 1
    assert smap.shard_of(20) == 2
    assert smap.covers(1, 10) and not smap.covers(0, 10)
    assert smap.covers(2, 20) and not smap.covers(1, 20)


def test_route_preserves_order_and_allows_empty_fragments():
    smap = ShardMap(column="A", bounds=(100,))
    fragments = smap.route([7, 3, 5])
    assert fragments == [[7, 3, 5], []]  # order kept; upper shard empty


def test_single_shard_fragment_is_the_input_list():
    smap = ShardMap(column="A", bounds=())
    keys = [9, 1, 5]
    assert smap.route(keys) == [keys]


def test_bounds_must_strictly_increase():
    with pytest.raises(CatalogError):
        ShardMap(column="A", bounds=(5, 5))


def test_from_quantiles_equi_depth_and_skew_error():
    smap = ShardMap.from_quantiles("A", list(range(100)), 4)
    sizes = [len(f) for f in smap.route(list(range(100)))]
    assert sizes == [25, 25, 25, 25]
    with pytest.raises(CatalogError):
        ShardMap.from_quantiles("A", [1] * 50, 4)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    keys=st.lists(st.integers(0, 1000), max_size=60),
    bounds=st.lists(st.integers(0, 1000), max_size=4, unique=True),
)
def test_every_key_routes_exactly_once(keys, bounds):
    smap = ShardMap(column="A", bounds=tuple(sorted(bounds)))
    fragments = smap.route(keys)
    assert sorted(k for frag in fragments for k in frag) == sorted(keys)
    for shard_id, frag in enumerate(fragments):
        assert all(smap.covers(shard_id, k) for k in frag)


# ---------------------------------------------------------- execution


def _sharded_run(shards, lanes, fraction=0.25):
    wl = build_sharded_workload(CONFIG, shards=shards)
    keys = wl.delete_keys(fraction)
    wl.reset_measurements()
    result = sharded_bulk_delete(wl.db, "R", "A", keys, lanes=lanes)
    return wl, result


@lru_cache(maxsize=None)
def _unsharded_oracle(fraction):
    wl = build_workload(CONFIG)
    keys = wl.delete_keys(fraction)
    wl.reset_measurements()
    result = bulk_delete(wl.db, "R", "A", keys, force_vertical=True)
    return result.records_deleted, result.elapsed_ms, wl.db.clock.now_ms


@settings(max_examples=8, deadline=None, derandomize=True)
@given(fraction=st.sampled_from([0.1, 0.25, 0.5]))
def test_one_shard_is_bit_identical_to_unsharded(fraction):
    """1 shard x 1 lane takes the exact unsharded code path."""
    deleted, elapsed_ms, clock_ms = _unsharded_oracle(fraction)
    wl, result = _sharded_run(shards=1, lanes=1, fraction=fraction)
    assert result.records_deleted == deleted
    # Bit-identity is the contract, so exact float equality is the
    # point of these assertions.
    assert result.elapsed_ms == elapsed_ms  # lint: allow(float-cost-eq)
    assert wl.db.clock.now_ms == clock_ms  # lint: allow(float-cost-eq)
    assert not result.reconciliation_problems()


def test_all_keys_in_one_shard_of_many():
    """A delete list confined to one range: siblings stay untouched."""
    wl = build_sharded_workload(CONFIG, shards=4)
    table = wl.db.table("R")
    bound = table.shard_map.bounds[0]
    keys = [a for a in wl.a_values if a < bound][:40]
    before = capture_state(wl.db)
    result = sharded_bulk_delete(wl.db, "R", "A", keys, lanes=2)
    after = capture_state(wl.db)
    assert result.records_deleted == len(keys)
    assert not result.reconciliation_problems()
    # All but the first physical shard are byte-for-byte untouched.
    for shard_id in (1, 2, 3):
        name = table.shard(shard_id).name
        assert after[name] == before[name]


def test_parallel_matches_serial_logical_state():
    wl_par, par = _sharded_run(shards=4, lanes=4)
    wl_ser, ser = _sharded_run(shards=4, lanes=1)
    assert par.records_deleted == ser.records_deleted
    assert capture_state(wl_par.db) == capture_state(wl_ser.db)
    assert not par.reconciliation_problems()
    assert not ser.reconciliation_problems()
    assert par.region is not None and par.region.speedup > 1.0
    assert ser.region is None


def test_empty_fragment_is_skipped_not_executed():
    wl = build_sharded_workload(CONFIG, shards=4)
    table = wl.db.table("R")
    bound = table.shard_map.bounds[0]
    keys = [a for a in wl.a_values if a < bound][:10]
    plan = choose_sharded_plan(wl.db, "R", "A", keys, lanes=2)
    assert len(plan.fragments) == 1  # empty shards plan no fragment
    assert plan.fragments[0].shard_id == 0


def test_repeated_key_is_routed_once_through_the_one_entry_point():
    """``bulk_delete`` serves a sharded table, and an IN-list with a
    repeated key plans (and lints) like the set it denotes."""
    wl = build_sharded_workload(CONFIG, shards=3)
    keys = wl.delete_keys(0.1)
    result = bulk_delete(wl.db, "R", "A", keys + keys[:5])
    assert result.records_deleted == len(keys)
    assert not result.reconciliation_problems()
    assert not {a for _, (a, *_) in wl.db.scan("R")} & set(keys)


def test_empty_delete_list():
    wl = build_sharded_workload(CONFIG, shards=3)
    result = sharded_bulk_delete(wl.db, "R", "A", [], lanes=2)
    assert result.records_deleted == 0
    assert result.fragment_results == []
    assert not result.reconciliation_problems()


# ---------------------------------------------------------- hot ranges


def test_oversized_fragment_is_split():
    wl = build_sharded_workload(CONFIG, shards=4)
    bounds = wl.db.table("R").shard_map.bounds
    keys = [a for a in wl.a_values if a < bounds[0]][:90]
    keys += [a for a in wl.a_values if bounds[0] <= a < bounds[1]][:5]
    keys += [a for a in wl.a_values if a >= bounds[-1]][:5]
    plan = choose_sharded_plan(
        wl.db, "R", "A", keys, lanes=2, hot_factor=2.0
    )
    pieces = [f for f in plan.fragments if f.policy == HOT_SPLIT]
    assert pieces and all(f.shard_id == 0 for f in pieces)
    assert all(not f.is_parallel for f in pieces)
    # The split pieces still cover shard 0's keys exactly once.
    split_keys = [k for f in pieces for k in f.keys]
    assert sorted(split_keys) == sorted(keys[:90])
    # Execution of a hot plan still reconciles and deletes everything.
    result = sharded_bulk_delete(wl.db, "R", "A", keys, plan=plan)
    assert result.records_deleted == len(keys)
    assert not result.reconciliation_problems()


def test_access_skew_serializes_the_hot_shard():
    wl = build_sharded_workload(CONFIG, shards=4)
    table = wl.db.table("R")
    for shard_id in (0, 1, 3):
        table.note_shard_access(shard_id, 10)
    for _ in range(70):
        table.note_shard_access(2, 10)
    keys = wl.delete_keys(0.25)
    plan = choose_sharded_plan(
        wl.db, "R", "A", keys, lanes=2, hot_factor=2.0
    )
    hot = [f for f in plan.fragments if f.policy == HOT_SERIALIZE]
    assert [f.shard_id for f in hot] == [2]
    assert all(
        f.is_parallel for f in plan.fragments if f.shard_id != 2
    )


def test_hot_detection_disabled_with_nonpositive_factor():
    wl = build_sharded_workload(CONFIG, shards=4)
    bounds = wl.db.table("R").shard_map.bounds
    keys = [a for a in wl.a_values if a < bounds[0]][:90]
    keys += [a for a in wl.a_values if a >= bounds[-1]][:5]
    plan = choose_sharded_plan(
        wl.db, "R", "A", keys, lanes=2, hot_factor=0.0
    )
    assert all(f.policy is None for f in plan.fragments)
    assert set(HOT_POLICIES) == {HOT_SPLIT, HOT_SERIALIZE}


# ------------------------------------------------------------ catalog


def _tiny_schema():
    return TableSchema.of(
        "R", [Attribute.int_("A"), Attribute.char("PAD", 8)]
    )


def test_create_index_on_sharded_logical_table_is_rejected(db):
    db.create_sharded_table(_tiny_schema(), "A", [10])
    with pytest.raises(CatalogError):
        db.create_index("R", "A")
    db.create_sharded_index("R", "A")  # the sharded spelling works


def test_delete_record_on_logical_table_is_rejected(db):
    db.create_sharded_table(_tiny_schema(), "A", [10])
    rid = db.insert("R", (5, "p"))
    with pytest.raises(CatalogError):
        db.delete_record("R", rid)


def test_load_table_must_precede_sharded_indexes(db):
    db.create_sharded_table(_tiny_schema(), "A", [10])
    db.create_sharded_index("R", "A")
    with pytest.raises(CatalogError):
        db.load_table("R", [(1, "p"), (20, "q")])


# --------------------------------------------------------------- lint


def test_shard_coverage_lint_catches_misrouted_key():
    wl = build_sharded_workload(CONFIG, shards=2)
    keys = wl.delete_keys(0.1)
    plan = choose_sharded_plan(wl.db, "R", "A", keys, lanes=2)
    # Smuggle a key of shard 1 into shard 0's fragment.
    victim = plan.fragments[1].keys[0]
    plan.fragments[0].keys.append(victim)
    with pytest.raises(PlanValidationError) as exc:
        sharded_bulk_delete(wl.db, "R", "A", keys, plan=plan)
    assert any(
        f.rule_id == "plan/shard-coverage" for f in exc.value.findings
    )


def test_shard_coverage_lint_catches_duplicate_key():
    wl = build_sharded_workload(CONFIG, shards=2)
    keys = wl.delete_keys(0.1)
    plan = choose_sharded_plan(wl.db, "R", "A", keys, lanes=2)
    plan.fragments[0].keys.append(plan.fragments[0].keys[0])
    with pytest.raises(PlanValidationError):
        sharded_bulk_delete(wl.db, "R", "A", keys, plan=plan)


def test_clean_sharded_plan_validates():
    from repro.analysis.plan_lint import lint_sharded_plan

    wl = build_sharded_workload(CONFIG, shards=3)
    keys = wl.delete_keys(0.2)
    plan = choose_sharded_plan(wl.db, "R", "A", keys, lanes=2)
    assert lint_sharded_plan(plan, wl.db) == []


# ------------------------------------------------------------- faults


def test_shard_crash_sweep_small_sample():
    report = shard_crash_sweep(
        scenario=ShardSweepScenario(records=40, shards=3),
        max_points=6,
    )
    assert report.ok, report.failures
    assert len(report.outcomes) == 6


# -------------------------------------------------------------- hooks


def test_shard_metrics_are_emitted():
    wl = build_sharded_workload(CONFIG, shards=4)
    keys = wl.delete_keys(0.25)
    wl.reset_measurements()
    observer = wl.db.observe()
    sharded_bulk_delete(wl.db, "R", "A", keys, lanes=2)
    wl.db.unobserve()
    metrics = observer.metrics
    assert metrics.value("shard.route.calls") == 1
    assert metrics.value("shard.route.fragments") == 4
    assert metrics.value("shard.route.keys") == len(keys)
    assert metrics.value("shard.accesses") == len(keys)


def test_hot_metric_carries_the_policy():
    wl = build_sharded_workload(CONFIG, shards=4)
    table = wl.db.table("R")
    for shard_id in (0, 1, 3):
        table.note_shard_access(shard_id, 10)
    for _ in range(70):
        table.note_shard_access(2, 10)
    keys = wl.delete_keys(0.25)
    observer = wl.db.observe()
    sharded_bulk_delete(
        wl.db, "R", "A", keys, lanes=2, hot_factor=2.0
    )
    wl.db.unobserve()
    assert observer.metrics.value("shard.hot.detected") >= 1
    assert observer.metrics.value(f"shard.hot.{HOT_SERIALIZE}") >= 1


def test_shard_routing_pure_contract_is_registered():
    from repro.analysis.effects.contracts import EFFECT_RULES

    assert "effect/shard-routing-pure" in EFFECT_RULES
