"""Tests for the hash index and its traditional-way maintenance."""

import random

import pytest

from repro import Database, bulk_delete, bulk_update
from repro.btree.maintenance import validate_tree
from repro.core.drop_create import drop_create_delete
from repro.core.planner import choose_plan
from repro.errors import (
    IndexError_,
    RecoveryError,
    TransactionError,
    UniqueViolationError,
)
from repro.hashindex import HashIndex
from repro.recovery.restart import RecoverableBulkDelete
from repro.recovery.wal import WriteAheadLog
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.txn.coordinator import BulkDeleteCoordinator
from tests.conftest import populate
from tests.reference_codec import durable_pages, use_reference_codec


@pytest.fixture
def hash_index():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=64)
    return HashIndex(pool, bucket_count=8)


# ----------------------------------------------------------------------
# standalone structure
# ----------------------------------------------------------------------
def test_insert_search_delete(hash_index):
    hash_index.insert(5, 100)
    hash_index.insert(5, 200)
    hash_index.insert(9, 300)
    assert sorted(hash_index.search(5)) == [100, 200]
    assert hash_index.contains(9, 300)
    assert hash_index.delete(5, 100)
    assert hash_index.search(5) == [200]
    assert not hash_index.delete(5, 100)
    hash_index.validate()


def test_overflow_chains(hash_index):
    # Far more entries than one page per bucket can hold.
    for i in range(2000):
        hash_index.insert(i, i)
    assert hash_index.entry_count == 2000
    assert hash_index.page_count() > hash_index.bucket_count
    hash_index.validate()
    for i in range(0, 2000, 97):
        assert hash_index.search(i) == [i]


def test_delete_from_overflow_page(hash_index):
    for i in range(2000):
        hash_index.insert(i, i)
    for i in range(0, 2000, 2):
        assert hash_index.delete(i, i)
    assert hash_index.entry_count == 1000
    hash_index.validate()


def test_durable_pages_identical_to_reference_codec(monkeypatch):
    def run():
        disk = SimulatedDisk(page_size=512)
        index = HashIndex(BufferPool(disk, capacity_pages=64), bucket_count=4)
        rng = random.Random(3)
        keys = [rng.randrange(-(1 << 63), 1 << 63) for _ in range(300)]
        for i, key in enumerate(keys + keys[:40]):  # duplicates, overflow pages
            index.insert(key, i)
        assert index.page_count() > index.bucket_count
        for i, key in enumerate(keys[::3]):
            assert index.delete(key, 3 * i)
        assert sorted(index.search(keys[1])) == [1, 301]
        index.validate()
        index.pool.flush_all()
        return durable_pages(disk)

    columnar = run()
    with monkeypatch.context() as patch:
        use_reference_codec(patch)
        assert run() == columnar


def test_unique_hash_index():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=16)
    idx = HashIndex(pool, bucket_count=4, unique=True)
    idx.insert(1, 10)
    with pytest.raises(UniqueViolationError):
        idx.insert(1, 20)


def test_items_cover_everything(hash_index):
    entries = [(i, i * 3) for i in range(50)]
    for k, v in entries:
        hash_index.insert(k, v)
    assert sorted(hash_index.items()) == sorted(entries)


def test_sized_for_targets_fill():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=64)
    idx = HashIndex.sized_for(pool, expected_entries=1000)
    per_page = idx.capacity_per_page
    assert idx.bucket_count == pytest.approx(
        1000 / (per_page * 0.7), rel=0.2
    )


def test_validation_params():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=16)
    with pytest.raises(IndexError_):
        HashIndex(pool, bucket_count=0)


def test_drop_frees_pages(hash_index):
    for i in range(500):
        hash_index.insert(i, i)
    disk = hash_index.pool.disk
    assert disk.num_pages > 0
    hash_index.drop()
    assert disk.num_pages == 0


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def fresh_with_hash(n=300):
    db = Database(page_size=512, memory_bytes=64 * 1024)
    values = populate(db, n=n)  # btree on A (unique) and B
    db.create_hash_index("R", "B", name="H_B")
    return db, values


def test_create_hash_index_backfills():
    db, values = fresh_with_hash()
    h = db.table("R").index("H_B").hash_index
    assert h.entry_count == 300
    h.validate()
    assert h.contains(values["B"][0])


def test_dml_maintains_hash_index():
    db, values = fresh_with_hash()
    rid = db.insert("R", (900001, 900002, "x"))
    h = db.table("R").index("H_B").hash_index
    assert h.contains(900002, rid.pack())
    db.delete_record("R", rid)
    assert not h.contains(900002)
    h.validate()


def test_bulk_delete_updates_hash_index_traditionally():
    db, values = fresh_with_hash()
    keys = values["A"][:90]
    result = bulk_delete(db, "R", "A", keys)
    assert result.records_deleted == 90
    h = db.table("R").index("H_B").hash_index
    assert h.entry_count == 210
    h.validate()
    # The hash step is reported like any other structure.
    names = [s.structure for s in result.step_results]
    assert "H_B" in names
    hash_step = next(s for s in result.step_results if s.structure == "H_B")
    assert hash_step.deleted_count == 90


def test_planner_notes_hash_indexes():
    db, values = fresh_with_hash()
    plan = choose_plan(db, "R", "A", 90, force_vertical=True)
    assert any("hash index" in note for note in plan.notes)
    assert all(step.target != "H_B" for step in plan.steps)


def test_bulk_update_maintains_hash_index():
    db, values = fresh_with_hash()
    bulk_update(db, "R", "B", compute=lambda r: r[1] + 10**6,
                where=lambda r: True)
    h = db.table("R").index("H_B").hash_index
    assert h.entry_count == 300
    h.validate()
    for _, row in db.scan("R"):
        assert h.contains(row[1])


def test_drop_create_rebuilds_hash_index():
    db, values = fresh_with_hash()
    result = drop_create_delete(db, "R", "A", values["A"][:60])
    assert "H_B" in result.indexes_recreated
    h = db.table("R").index("H_B").hash_index
    assert h.entry_count == 240
    h.validate()


def test_coordinator_rejects_hash_indexes():
    db, values = fresh_with_hash()
    coord = BulkDeleteCoordinator(db, "R", "A", values["A"][:10])
    with pytest.raises(TransactionError):
        coord.begin()


def test_recoverable_rejects_hash_indexes():
    db, values = fresh_with_hash()
    log = WriteAheadLog(db.disk)
    runner = RecoverableBulkDelete(db, "R", "A", values["A"][:10], log)
    with pytest.raises(RecoveryError):
        runner.run()


def test_hash_index_slows_the_bulk_delete():
    """The §5 point: a non-B-tree index drags the vertical plan back
    toward per-record cost."""
    db_plain = Database(page_size=512, memory_bytes=16 * 512)
    values = populate(db_plain, n=600)
    db_plain.flush()
    db_plain.clock.reset()
    r_plain = bulk_delete(db_plain, "R", "A", values["A"][:200])

    db_hash = Database(page_size=512, memory_bytes=16 * 512)
    values2 = populate(db_hash, n=600)
    db_hash.create_hash_index("R", "B", name="H_B")
    db_hash.flush()
    db_hash.clock.reset()
    r_hash = bulk_delete(db_hash, "R", "A", values2["A"][:200])
    assert r_hash.elapsed_ms > r_plain.elapsed_ms * 1.5
