"""Tests for Section 2.3: reorganization during bulk deletion."""

import pytest

from repro.btree.maintenance import validate_tree
from repro.btree.tree import BLinkTree
from repro.core.bulk_ops import bd_index_sort_merge
from repro.core.reorg import compact_leaf_level, sweep_with_base_node_reorg
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


def make_tree(n=200, leaf_cap=8, inner_cap=8):
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=64)
    tree = BLinkTree(pool, max_leaf_entries=leaf_cap,
                     max_inner_entries=inner_cap)
    tree.bulk_load([(i, 5000 + i) for i in range(n)])
    return tree, disk


def test_compact_after_sparse_deletes():
    tree, disk = make_tree()
    pairs = [(k, 5000 + k) for k in range(200) if k % 3 != 0]
    bd_index_sort_merge(tree, pairs, disk)
    leaves_before = tree.leaf_count()
    freed = compact_leaf_level(tree)
    assert freed >= 0
    assert tree.leaf_count() <= leaves_before
    validate_tree(tree)
    assert [k for k, _ in tree.items()] == [k for k in range(0, 200, 3)]


def test_compact_leaves_are_dense():
    tree, disk = make_tree()
    bd_index_sort_merge(
        tree, [(k, 5000 + k) for k in range(0, 200, 2)], disk
    )
    compact_leaf_level(tree, fill_factor=1.0)
    leaf_ids = [leaf.page_id for leaf in tree.leaves()]
    for pid in leaf_ids[:-1]:
        assert tree.read_leaf(pid).entry_count == tree.leaf_capacity
    validate_tree(tree)


def test_compact_empty_tree():
    tree, disk = make_tree(n=10)
    bd_index_sort_merge(tree, [(k, 5000 + k) for k in range(10)], disk)
    compact_leaf_level(tree)
    assert tree.entry_count == 0
    validate_tree(tree)


def test_compact_preserves_entry_count():
    tree, disk = make_tree()
    before = tree.entry_count
    compact_leaf_level(tree)
    assert tree.entry_count == before
    validate_tree(tree)


def test_base_node_sweep_equals_plain_sweep():
    pairs = sorted((k, 5000 + k) for k in range(0, 200, 7))
    tree_a, disk_a = make_tree()
    res_a = sweep_with_base_node_reorg(tree_a, pairs, disk_a)
    tree_b, disk_b = make_tree()
    res_b = bd_index_sort_merge(tree_b, pairs, disk_b)
    assert sorted(res_a.deleted) == sorted(res_b.deleted)
    assert list(tree_a.items()) == list(tree_b.items())
    validate_tree(tree_a)
    validate_tree(tree_b)


def test_base_node_sweep_heavy_deletes():
    tree, disk = make_tree()
    pairs = [(k, 5000 + k) for k in range(150)]
    result = sweep_with_base_node_reorg(tree, pairs, disk)
    assert result.deleted_count == 150
    assert result.pages_freed > 0
    validate_tree(tree)
    assert [k for k, _ in tree.items()] == list(range(150, 200))


def test_base_node_sweep_everything():
    tree, disk = make_tree(n=100)
    result = sweep_with_base_node_reorg(
        tree, [(k, 5000 + k) for k in range(100)], disk
    )
    assert result.deleted_count == 100
    assert tree.entry_count == 0
    validate_tree(tree)


def test_base_node_sweep_on_single_leaf_tree():
    tree, disk = make_tree(n=4)
    result = sweep_with_base_node_reorg(tree, [(0, 5000)], disk)
    assert result.deleted_count == 1
    validate_tree(tree)


def test_base_node_sweep_empty_delete_list():
    tree, disk = make_tree()
    result = sweep_with_base_node_reorg(tree, [], disk)
    assert result.deleted_count == 0
    assert tree.entry_count == 200


def test_base_node_sweep_taller_tree():
    tree, disk = make_tree(n=400, leaf_cap=4, inner_cap=4)
    assert tree.height >= 4
    pairs = [(k, 5000 + k) for k in range(0, 400, 3)]
    result = sweep_with_base_node_reorg(tree, pairs, disk)
    assert result.deleted_count == len(pairs)
    validate_tree(tree)
    expected = [k for k in range(400) if k % 3 != 0]
    assert [k for k, _ in tree.items()] == expected
