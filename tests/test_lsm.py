"""The delete-aware LSM engine against reference models.

Unit tests pin each layer's contract (memtable resolution, run
build/probe, FADE victim selection, bulk load placement, catalog
integration), and a Hypothesis property test drives random operation
sequences — puts, point/range deletes, flushes, compactions, crashes —
against a dict model, checking visibility after every step and
byte-identical state across recovery.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Attribute, Database, TableSchema
from repro.errors import CatalogError, PlanningError, StorageError
from repro.lsm import (
    LsmConfig,
    LsmTree,
    Memtable,
    RangeTombstone,
    choose_lsm_plan,
    lsm_bulk_delete,
)
from repro.lsm.planning import RANGE_COMPILE_MIN, compile_tombstones
from repro.lsm.sstable import build_run, run_get, run_iter
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

TINY = LsmConfig(
    memtable_entries=8,
    l0_runs=2,
    run_pages=2,
    level_runs=2,
    fanout=2,
    tombstone_density_trigger=0.2,
    tombstone_age_seqs=1000,
    max_delete_compactions=4,
)


def make_pool(pages: int = 32, page_size: int = 512) -> BufferPool:
    disk = SimulatedDisk(page_size=page_size)
    return BufferPool(disk, capacity_pages=pages)


# ----------------------------------------------------------------------
# memtable
# ----------------------------------------------------------------------
def test_memtable_resolution_is_newest_wins():
    mem = Memtable()
    mem.put(1, 10, b"a")
    mem.put(3, 10, b"b")
    assert mem.resolve(10) == (3, b"b")
    mem.delete(4, 10)
    assert mem.resolve(10) == (4, None)
    mem.put(5, 10, b"c")
    assert mem.resolve(10) == (5, b"c")
    assert mem.resolve(99) is None


def test_memtable_range_tombstone_competes_by_seq():
    mem = Memtable()
    mem.put(5, 10, b"new")
    mem.put(1, 11, b"old")
    mem.delete_range(3, 0, 20)
    # Newer point survives the older range; older point does not.
    assert mem.resolve(10) == (5, b"new")
    assert mem.resolve(11) == (3, None)
    # The range answers for keys it covers even with no point entry.
    assert mem.resolve(15) == (3, None)
    assert mem.resolve(21) is None
    assert mem.entry_count == 3
    assert mem.approx_live == 1


def test_range_tombstone_rejects_empty_interval():
    with pytest.raises(ValueError):
        RangeTombstone(seq=1, lo=5, hi=4)


# ----------------------------------------------------------------------
# sorted runs
# ----------------------------------------------------------------------
def test_run_round_trip_and_fence_probe():
    pool = make_pool()
    file_id = pool.disk.create_file()
    items = [(k, k + 100, f"v{k}".encode()) for k in range(0, 60, 2)]
    meta = build_run(pool, file_id, run_id=1, level=1, items=items)
    assert meta.entry_count == len(items)
    assert (meta.key_min, meta.key_max) == (0, 58)
    assert list(run_iter(pool, meta)) == items
    hit, pages = run_get(pool, meta, 42)
    assert hit == (142, b"v42")
    assert pages == 1  # fence keys route the probe to one page
    miss, _ = run_get(pool, meta, 43)
    assert miss is None


def test_run_build_rejects_unsorted_keys():
    pool = make_pool()
    file_id = pool.disk.create_file()
    with pytest.raises(StorageError):
        build_run(
            pool, file_id, run_id=1, level=1,
            items=[(2, 1, b"a"), (1, 2, b"b")],
        )


# ----------------------------------------------------------------------
# tombstone compilation
# ----------------------------------------------------------------------
def test_compile_tombstones_splits_runs_and_points():
    lo = 100
    block = list(range(lo, lo + RANGE_COMPILE_MIN))
    short = [1, 2, 3]  # consecutive but below the threshold
    scattered = [900, 905]
    points, ranges = compile_tombstones(short + block + scattered)
    assert ranges == [(lo, lo + RANGE_COMPILE_MIN - 1)]
    assert points == short + scattered
    # Duplicates collapse before compilation.
    points2, ranges2 = compile_tombstones(block + block)
    assert (points2, ranges2) == ([], ranges)


# ----------------------------------------------------------------------
# tree vs model (property)
# ----------------------------------------------------------------------
def tree_state(tree):
    return dict(tree.scan())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_tree_matches_model_under_random_ops(data):
    pool = make_pool(pages=48)
    tree = LsmTree(pool, name="t", config=TINY)
    model = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        op = data.draw(st.sampled_from(
            ["put", "delete", "delete_range", "flush", "compact", "fade"]
        ))
        if op == "put":
            for key in data.draw(st.lists(
                st.integers(min_value=0, max_value=120), max_size=20
            )):
                payload = f"v{key}".encode()
                tree.put(key, payload)
                model[key] = payload
        elif op == "delete":
            for key in data.draw(st.lists(
                st.integers(min_value=0, max_value=140), max_size=10
            )):
                tree.delete(key)
                model.pop(key, None)
        elif op == "delete_range":
            lo = data.draw(st.integers(min_value=0, max_value=120))
            hi = lo + data.draw(st.integers(min_value=0, max_value=30))
            tree.delete_range(lo, hi)
            for key in [k for k in model if lo <= k <= hi]:
                del model[key]
        elif op == "flush":
            tree.flush_memtable()
        elif op == "compact":
            tree.compact_all()
            assert tree.tombstone_count == 0
        elif op == "fade":
            tree.delete_aware_compactions()
        assert tree_state(tree) == model
        for key in data.draw(st.lists(
            st.integers(min_value=0, max_value=140), max_size=5
        )):
            assert tree.get(key) == model.get(key)
    # Recovery from durable state matches the model exactly (anything
    # still buffered was logged, so nothing is lost).
    pool.invalidate_all()
    recovered = LsmTree.recover(pool, tree.handle, config=TINY, name="t")
    assert tree_state(recovered) == model


def test_recovery_is_terminal_and_preserves_sequences():
    pool = make_pool(pages=48)
    tree = LsmTree(pool, name="t", config=TINY)
    for key in range(30):
        tree.put(key, b"x%d" % key)
    tree.delete_range(5, 9)
    first = LsmTree.recover(pool, tree.handle, config=TINY, name="t")
    assert tree_state(first) == tree_state(tree)
    # New writes after recovery must win over pre-crash facts.
    first.put(5, b"back")
    assert first.get(5) == b"back"
    second = LsmTree.recover(pool, first.handle, config=TINY, name="t")
    assert tree_state(second) == tree_state(first)


def test_log_page_with_a_garbage_header_ends_replay_like_a_torn_tail():
    """A page whose checksum is fine but whose header claims a directory
    larger than the page is a ``StorageError`` — which the replay loop
    treats as the end of the chain — not a read from the wrong end of
    the frame or a bare ``struct.error``."""
    pool = make_pool(pages=48)
    tree = LsmTree(pool, name="t", config=TINY)
    for key in range(6):
        tree.put(key, b"v%d" % key)
    model = tree_state(tree)
    with pool.pin(tree._log_pages[-1]) as pinned:
        pinned.data[:] = b"\xff" * len(pinned.data)
        pinned.mark_dirty()
    pool.flush_page(tree._log_pages[-1])
    pool.invalidate_all()
    recovered = LsmTree.recover(pool, tree.handle, config=TINY, name="t")
    del model[5]  # the op on the ruined page is the only one lost
    assert tree_state(recovered) == model


# ----------------------------------------------------------------------
# FADE
# ----------------------------------------------------------------------
def test_fade_density_trigger_picks_tombstone_dense_run():
    pool = make_pool(pages=64)
    tree = LsmTree(pool, name="t", config=TINY)
    for key in range(32):
        tree.put(key, b"p%d" % key)
    tree.compact_all()
    assert tree.tombstone_count == 0
    for key in range(0, 6):  # stays below the 8-entry flush trigger
        tree.delete(key)
    tree.flush_memtable()
    assert tree.tombstone_count > 0
    ran = tree.delete_aware_compactions()
    assert ran > 0
    # Dense tombstones reached the deepest data and were dropped.
    assert tree.tombstone_count == 0
    assert tree_state(tree) == {
        key: b"p%d" % key for key in range(6, 32)
    }


def test_fade_age_trigger_fires_without_density():
    config = LsmConfig(
        memtable_entries=64, l0_runs=8, run_pages=2, level_runs=8,
        fanout=2, tombstone_density_trigger=0.99, tombstone_age_seqs=10,
        max_delete_compactions=4,
    )
    pool = make_pool(pages=64)
    tree = LsmTree(pool, name="t", config=config)
    for key in range(20):
        tree.put(key, b"p%d" % key)
    tree.delete(0)  # 1 tombstone in 21 facts: density ~0.05, never 0.99
    tree.flush_memtable()
    assert tree.delete_aware_compactions() == 0  # too young, too sparse
    for key in range(100, 112):
        tree.put(key, b"q%d" % key)  # age the tombstone past 10 seqs
    assert tree.delete_aware_compactions() > 0
    assert 0 not in dict(tree.scan())


def test_write_only_deletes_defer_all_compaction():
    pool = make_pool(pages=64)
    db_free_tree = LsmTree(pool, name="t", config=TINY)
    for key in range(16):
        db_free_tree.put(key, b"p%d" % key)
    before = db_free_tree.stats.snapshot()
    db_free_tree.delete(3)
    delta = db_free_tree.stats.delta_since(before)
    assert delta.point_deletes == 1
    assert delta.compactions == 0
    # The tombstone is one log append; no data page was touched.
    assert delta.log_appends == 1
    assert delta.compaction_pages_written == 0


# ----------------------------------------------------------------------
# bulk load
# ----------------------------------------------------------------------
def test_bulk_load_places_runs_within_level_budget():
    pool = make_pool(pages=96)
    tree = LsmTree(pool, name="t", config=TINY)
    count = tree.bulk_load(
        (key, b"r%d" % key) for key in range(300)
    )
    assert count == 300
    # Every level respects its run budget, so the next flush does not
    # trigger a rebalancing storm against a deliberately overfull L1.
    for level in range(1, len(tree.levels)):
        assert len(tree.levels[level]) <= tree.config.level_runs * (
            tree.config.fanout ** (level - 1)
        )
    assert tree.stats.log_appends == 0
    assert tree.stats.manifest_commits >= 1
    assert len(tree_state(tree)) == 300


def test_bulk_load_requires_empty_tree_and_dedupes():
    pool = make_pool()
    tree = LsmTree(pool, name="t", config=TINY)
    tree.bulk_load([(1, b"first"), (1, b"last")])
    assert tree.get(1) == b"last"
    with pytest.raises(StorageError):
        tree.bulk_load([(2, b"again")])


# ----------------------------------------------------------------------
# catalog + planner integration
# ----------------------------------------------------------------------
def make_db():
    db = Database(page_size=512, memory_bytes=32 * 512)
    db.create_table(
        TableSchema.of(
            "R", [Attribute.int_("A"), Attribute.char("PAD", 20)]
        ),
        engine="lsm",
        lsm_config=TINY,
    )
    return db


def test_lsm_table_facade_semantics():
    db = make_db()
    db.load_table("R", [(a, f"row{a}") for a in range(20)])
    assert db.insert("R", (20, "late")) is None  # key-addressed: no RID
    assert dict(db.scan("R"))[20] == (20, "late")
    assert db.table("R").engine == "lsm"
    assert db.table("R").record_count == 21
    with pytest.raises(CatalogError):
        db.create_index("R", "A")
    with pytest.raises(CatalogError):
        db.create_hash_index("R", "A")
    with pytest.raises(CatalogError):
        db.delete_record("R", None)
    # create_table argument checks: the engine set is closed, the LSM
    # knobs belong to LSM tables only, and the key column must be INT.
    schema = TableSchema.of(
        "S", [Attribute.int_("A"), Attribute.char("PAD", 20)]
    )
    with pytest.raises(CatalogError, match="unknown storage engine"):
        db.create_table(schema, engine="rope-and-pulley")
    with pytest.raises(CatalogError, match="only apply to engine='lsm'"):
        db.create_table(schema, key_column="A")
    with pytest.raises(CatalogError, match="only apply to engine='lsm'"):
        db.create_table(schema, engine="heap", lsm_config=TINY)
    with pytest.raises(CatalogError, match="must be INT"):
        db.create_table(schema, engine="lsm", key_column="PAD")
    with pytest.raises(CatalogError, match="must be an LsmConfig"):
        db.create_table(schema, engine="lsm", lsm_config={"l0_runs": 2})
    assert not db.catalog.has_table("S")  # every rejection left no entry
    assert db.create_table(schema).engine == "heap"


def test_lsm_plan_requires_the_key_column():
    db = make_db()
    db.load_table("R", [(a, f"row{a}") for a in range(20)])
    with pytest.raises(PlanningError):
        choose_lsm_plan(db, "R", "PAD", [1, 2])
    plan = choose_lsm_plan(db, "R", "A", list(range(16)) + [40])
    assert plan.range_tombstones == 1
    assert plan.point_tombstones == 1
    assert plan.estimated_ms > 0
    assert "range" in plan.explain()


def test_lsm_bulk_delete_reconciles_with_vacuum():
    db = make_db()
    db.load_table("R", [(a, f"row{a}") for a in range(40)])
    keys = list(range(8, 28)) + [30, 35]
    result = lsm_bulk_delete(db, "R", "A", keys)
    assert result.records_deleted == len(set(keys))
    assert result.range_tombstones == 1
    survivors = {a for a, _ in db.scan("R")}
    assert survivors == set(range(40)) - set(keys)
    stats = db.vacuum("R")
    assert stats["lsm_data_pages"] > 0
    tree = db.table("R").lsm
    assert tree is not None and tree.tombstone_count == 0
    assert {a for a, _ in db.scan("R")} == survivors


def test_lsm_page_write_accounting_is_exact():
    db = make_db()
    db.load_table("R", [(a, f"row{a}") for a in range(64)])
    tree = db.table("R").lsm
    assert tree is not None
    io_before = db.disk.stats.snapshot()
    stats_before = tree.stats.snapshot()
    lsm_bulk_delete(db, "R", "A", list(range(10, 40)))
    io_delta = db.disk.stats.delta_since(io_before)
    stats_delta = tree.stats.delta_since(stats_before)
    assert io_delta.writes == stats_delta.page_writes
