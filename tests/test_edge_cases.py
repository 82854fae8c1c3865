"""Edge cases and failure-injection across subsystems."""

import pytest

from repro import (
    Attribute,
    Database,
    TableSchema,
    bulk_delete,
    traditional_delete,
)
from repro.btree.maintenance import validate_tree
from repro.btree.tree import BLinkTree
from repro.errors import CatalogError, IndexError_, StorageError
from repro.query.sort import ExternalSorter
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.rid import RID
from tests.conftest import populate


# ----------------------------------------------------------------------
# degenerate table shapes
# ----------------------------------------------------------------------
def test_bulk_delete_on_empty_table(db):
    db.create_table(TableSchema.of(
        "t", [Attribute.int_("k"), Attribute.int_("v")]
    ))
    db.create_index("t", "k")
    result = bulk_delete(db, "t", "k", [1, 2, 3], force_vertical=True)
    assert result.records_deleted == 0


def test_bulk_delete_single_row_table(db):
    db.create_table(TableSchema.of(
        "t", [Attribute.int_("k"), Attribute.int_("v")]
    ))
    db.insert("t", (7, 70))
    db.create_index("t", "k")
    result = bulk_delete(db, "t", "k", [7], force_vertical=True)
    assert result.records_deleted == 1
    assert list(db.scan("t")) == []


def test_bulk_delete_empty_key_list(db):
    values = populate(db, n=50)
    result = bulk_delete(db, "R", "A", [], force_vertical=True)
    assert result.records_deleted == 0
    assert db.table("R").record_count == 50


def test_traditional_delete_empty_key_list(db):
    populate(db, n=50)
    result = traditional_delete(db, "R", "A", [])
    assert result.records_deleted == 0


def test_repeated_bulk_deletes_converge(db):
    values = populate(db, n=200)
    keys = values["A"][:80]
    first = bulk_delete(db, "R", "A", keys, force_vertical=True)
    second = bulk_delete(db, "R", "A", keys, force_vertical=True)
    assert first.records_deleted == 80
    assert second.records_deleted == 0  # idempotent
    for ix in db.table("R").indexes.values():
        validate_tree(ix.tree)


def test_bulk_delete_then_reinsert_same_keys(db):
    values = populate(db, n=100, unique_a=True)
    keys = values["A"][:30]
    bulk_delete(db, "R", "A", keys, force_vertical=True)
    for key in keys:
        db.insert("R", (key, key + 1, "re"))
    assert db.table("R").record_count == 100
    for ix in db.table("R").indexes.values():
        validate_tree(ix.tree)
        assert ix.tree.entry_count == 100


# ----------------------------------------------------------------------
# cursor / tree edges
# ----------------------------------------------------------------------
def make_tree(entries):
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=32)
    tree = BLinkTree(pool, max_leaf_entries=4, max_inner_entries=4)
    tree.bulk_load(sorted(entries))
    return tree


def test_cursor_start_key_beyond_all_keys():
    tree = make_tree([(i, i) for i in range(20)])
    remaining = [
        e for leaf in tree.leaves(start_key=10**9) for e in leaf.entries
    ]
    assert remaining == [] or remaining[0][0] >= 16  # last leaf only


def test_cursor_on_empty_tree():
    tree = make_tree([])
    assert [e for leaf in tree.leaves() for e in leaf.entries] == []


def test_range_scan_empty_interval():
    tree = make_tree([(i, i) for i in range(20)])
    assert list(tree.range_scan(100, 50)) == []
    assert list(tree.range_scan(1000, 2000)) == []


def test_read_leaf_rejects_inner_pages():
    tree = make_tree([(i, i) for i in range(50)])
    assert tree.height >= 2
    with pytest.raises(IndexError_):
        tree.read_leaf(tree.root_id)


# ----------------------------------------------------------------------
# sorter stats and width mismatches
# ----------------------------------------------------------------------
def test_sorter_stats_populated():
    disk = SimulatedDisk(page_size=512)
    sorter = ExternalSorter(disk, memory_bytes=1 << 20, width=1)
    list(sorter.sort([(3,), (1,), (2,)]))
    assert sorter.stats.input_tuples == 3
    assert sorter.stats.runs == 1
    assert not sorter.stats.spilled


def test_sorter_spill_stats():
    disk = SimulatedDisk(page_size=512)
    sorter = ExternalSorter(disk, memory_bytes=1024, width=1)
    list(sorter.sort([(i,) for i in range(1000)]))
    assert sorter.stats.spilled
    assert sorter.stats.spill_pages > 0


# ----------------------------------------------------------------------
# failure injection on the heap path
# ----------------------------------------------------------------------
def test_delete_many_rejects_foreign_rid(db):
    populate(db, n=20, indexes=())
    table = db.table("R")
    with pytest.raises(StorageError):
        table.heap.delete_many_sorted([RID(999999, 0)])


def test_update_rejects_size_change(db):
    populate(db, n=5, indexes=())
    table = db.table("R")
    rid = next(r for r, _ in table.heap.scan())
    with pytest.raises(StorageError):
        table.heap.update(rid, b"short")


def test_unknown_table_everywhere(db):
    with pytest.raises(CatalogError):
        bulk_delete(db, "missing", "A", [1])
    with pytest.raises(CatalogError):
        db.vacuum("missing")


# ----------------------------------------------------------------------
# simulated-clock sanity across a whole operation
# ----------------------------------------------------------------------
def test_clock_monotone_through_bulk_delete(db):
    values = populate(db, n=150)
    t0 = db.clock.now_ms
    bulk_delete(db, "R", "A", values["A"][:50], force_vertical=True)
    t1 = db.clock.now_ms
    assert t1 > t0
    # Time only moves forward; a second op adds more.
    bulk_delete(db, "R", "A", values["A"][50:80], force_vertical=True)
    assert db.clock.now_ms > t1


def test_io_accounting_consistent(db):
    values = populate(db, n=150)
    db.flush()
    before = db.disk.stats.snapshot()
    result = bulk_delete(db, "R", "A", values["A"][:50],
                         force_vertical=True)
    delta = db.disk.stats.delta_since(before)
    assert delta.reads == result.io.reads
    assert delta.writes == result.io.writes
    breakdown = (
        delta.random_reads
        + delta.sequential_reads
        + delta.near_sequential_reads
    )
    assert breakdown == delta.reads
