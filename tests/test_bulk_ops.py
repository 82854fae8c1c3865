"""Unit tests for the physical bd primitives."""

import random

import pytest

from repro.btree.maintenance import validate_tree
from repro.btree.tree import BLinkTree
from repro.core.bulk_ops import (
    bd_heap_hash_probe,
    bd_heap_sorted_rids,
    bd_index_hash_probe,
    bd_index_partitioned,
    bd_index_sort_merge,
)
from repro.query.hashtable import BoundedHashSet
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.rid import RID
from tests.conftest import populate


@pytest.fixture
def tree_and_disk():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=64)
    tree = BLinkTree(pool, max_leaf_entries=8, max_inner_entries=8)
    tree.bulk_load([(i, 1000 + i) for i in range(200)])
    return tree, disk


def test_sort_merge_deletes_exact_pairs(tree_and_disk):
    tree, disk = tree_and_disk
    pairs = sorted((k, 1000 + k) for k in range(0, 200, 7))
    result = bd_index_sort_merge(tree, pairs, disk, match_rid=True)
    assert sorted(result.deleted) == pairs
    assert tree.entry_count == 200 - len(pairs)
    for k, v in pairs:
        assert not tree.contains(k, v)
    validate_tree(tree)


def test_sort_merge_rid_mismatch_keeps_entry(tree_and_disk):
    tree, disk = tree_and_disk
    result = bd_index_sort_merge(tree, [(5, 99999)], disk, match_rid=True)
    assert result.deleted == []
    assert tree.contains(5)


def test_sort_merge_key_only_matches_duplicates():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=64)
    tree = BLinkTree(pool, max_leaf_entries=8)
    tree.bulk_load(sorted([(5, i) for i in range(10)] + [(9, 0), (1, 0)]))
    result = bd_index_sort_merge(tree, [(5, 0)], disk, match_rid=False)
    assert len(result.deleted) == 10
    assert tree.search(5) == []
    assert tree.contains(9) and tree.contains(1)
    validate_tree(tree)


def test_sort_merge_visits_each_leaf_once(tree_and_disk):
    tree, disk = tree_and_disk
    leaves = tree.leaf_count()
    result = bd_index_sort_merge(
        tree, [(k, 1000 + k) for k in range(200)], disk
    )
    assert result.pages_visited == leaves


def test_sort_merge_frees_emptied_leaves(tree_and_disk):
    tree, disk = tree_and_disk
    before = tree.leaf_count()
    result = bd_index_sort_merge(
        tree, [(k, 1000 + k) for k in range(100)], disk
    )
    assert result.pages_freed > 0
    assert tree.leaf_count() < before
    validate_tree(tree)


def test_sort_merge_everything_leaves_empty_tree(tree_and_disk):
    tree, disk = tree_and_disk
    bd_index_sort_merge(tree, [(k, 1000 + k) for k in range(200)], disk)
    assert tree.entry_count == 0
    assert list(tree.items()) == []
    validate_tree(tree)


def test_sort_merge_empty_list_is_noop(tree_and_disk):
    tree, disk = tree_and_disk
    result = bd_index_sort_merge(tree, [], disk)
    assert result.pages_visited == 0
    assert tree.entry_count == 200


def test_sort_merge_on_removed_callback(tree_and_disk):
    tree, disk = tree_and_disk
    seen = []
    bd_index_sort_merge(
        tree,
        [(k, 1000 + k) for k in range(0, 40, 3)],
        disk,
        on_removed=lambda removed: seen.extend(removed),
    )
    assert sorted(seen) == [(k, 1000 + k) for k in range(0, 40, 3)]


def test_hash_probe_deletes_by_rid(tree_and_disk):
    tree, disk = tree_and_disk
    victims = {1000 + k for k in range(0, 200, 5)}
    rid_set = BoundedHashSet(1 << 20).build(victims)
    result = bd_index_hash_probe(tree, rid_set, disk)
    assert {v for _, v in result.deleted} == victims
    assert tree.entry_count == 200 - len(victims)
    validate_tree(tree)


def test_hash_probe_respects_undeletable(tree_and_disk):
    tree, disk = tree_and_disk
    rid_set = BoundedHashSet(1 << 20).build({1000, 1001})
    protected = {(1, 1001)}
    result = bd_index_hash_probe(tree, rid_set, disk,
                                 undeletable=protected)
    assert (0, 1000) in result.deleted
    assert (1, 1001) not in result.deleted
    assert tree.contains(1, 1001)


def test_partitioned_matches_hash_probe():
    def build():
        disk = SimulatedDisk(page_size=512)
        pool = BufferPool(disk, capacity_pages=64)
        tree = BLinkTree(pool, max_leaf_entries=8)
        tree.bulk_load([(i, 2000 + i) for i in range(300)])
        return tree, disk

    pairs = [(k, 2000 + k) for k in range(0, 300, 4)]
    tree_a, disk_a = build()
    # Tiny memory forces several partitions.
    result = bd_index_partitioned(tree_a, pairs, memory_bytes=16 * 20,
                                  disk=disk_a)
    assert result.partitions > 1
    tree_b, disk_b = build()
    rid_set = BoundedHashSet(1 << 20).build({v for _, v in pairs})
    bd_index_hash_probe(tree_b, rid_set, disk_b)
    assert list(tree_a.items()) == list(tree_b.items())
    validate_tree(tree_a)


def test_partitioned_single_partition_when_fits(tree_and_disk):
    tree, disk = tree_and_disk
    pairs = [(k, 1000 + k) for k in range(0, 200, 9)]
    result = bd_index_partitioned(tree, pairs, memory_bytes=1 << 20,
                                  disk=disk)
    assert result.partitions == 1
    assert len(result.deleted) == len(pairs)
    validate_tree(tree)


def test_heap_sorted_rids_returns_rows(db):
    values = populate(db, n=100, indexes=())
    table = db.table("R")
    rids = sorted(rid for rid, _ in table.heap.scan())[:30]
    rows, result = bd_heap_sorted_rids(table, rids, db.disk)
    assert len(rows) == 30
    assert result.deleted_count == 30
    assert table.record_count == 70
    for rid, row in rows:
        assert not table.heap.exists(rid)
        assert row[0] in set(values["A"])


def test_heap_hash_probe_equals_sorted(db):
    values = populate(db, n=100, indexes=())
    table = db.table("R")
    all_rids = [rid for rid, _ in table.heap.scan()]
    victims = set(random.Random(4).sample(all_rids, 25))
    rid_set = BoundedHashSet(1 << 20).build(r.pack() for r in victims)
    rows, result = bd_heap_hash_probe(table, rid_set, db.disk)
    assert {rid for rid, _ in rows} == victims
    assert table.record_count == 75
    assert result.pages_visited == len(table.heap.page_ids)


def test_collect_index_matches_read_only(tree_and_disk):
    from repro.core.bulk_ops import collect_index_matches

    tree, disk = tree_and_disk
    keys = [0, 7, 14, 10**6]  # last one missing
    result = collect_index_matches(tree, keys, disk)
    assert sorted(k for k, _ in result.deleted) == [0, 7, 14]
    # Nothing was modified.
    assert tree.entry_count == 200
    assert tree.contains(7)


def test_collect_index_matches_duplicates():
    from repro.core.bulk_ops import collect_index_matches

    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=64)
    tree = BLinkTree(pool, max_leaf_entries=4)
    tree.bulk_load(sorted([(5, i) for i in range(10)] + [(1, 0), (9, 0)]))
    result = collect_index_matches(tree, [5], disk)
    assert len(result.deleted) == 10
    assert all(k == 5 for k, _ in result.deleted)


def test_collect_index_matches_empty_inputs(tree_and_disk):
    from repro.core.bulk_ops import collect_index_matches

    tree, disk = tree_and_disk
    assert collect_index_matches(tree, [], disk).deleted == []


def test_bd_primitives_have_one_caller():
    """The vertical plan is spelled out once: only ``core/stages.py``
    (one call site per primitive) applies a ``bd`` primitive or the
    heap's bulk delete.  The primitives' own modules, the bulk UPDATE
    and restart's table redo — recovery safety arithmetic that is
    deliberately not a stage — are the documented exceptions."""
    import ast
    from collections import Counter
    from pathlib import Path

    import repro

    allowed = {
        "core/bulk_ops.py", "core/reorg.py", "core/bulk_update.py",
    }
    root = Path(repro.__file__).parent
    sites = Counter()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", "")
            if name.startswith("bd_") or name == "delete_many_sorted":
                sites[rel, name] += 1
    assert sites == {
        ("core/stages.py", "bd_index_sort_merge"): 1,
        ("core/stages.py", "bd_index_hash_probe"): 1,
        ("core/stages.py", "bd_index_partitioned"): 1,
        ("core/stages.py", "bd_heap_sorted_rids"): 1,
        ("core/stages.py", "bd_heap_hash_probe"): 1,
        ("recovery/restart.py", "delete_many_sorted"): 1,
    }
