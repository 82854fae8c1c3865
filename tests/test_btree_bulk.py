"""Unit tests for bulk load, leaf sweeps, and inner-level rebuilds."""

import pytest

from repro.btree.maintenance import (
    merge_underfull_leaves,
    validate_tree,
)
from repro.btree.tree import BLinkTree
from repro.errors import IndexError_, UniqueViolationError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def tree():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=64)
    return BLinkTree(pool, max_leaf_entries=8, max_inner_entries=8)


def entries(n):
    return [(i, i * 2) for i in range(n)]


def test_bulk_load_roundtrip(tree):
    tree.bulk_load(entries(100))
    assert tree.entry_count == 100
    assert list(tree.items()) == entries(100)
    validate_tree(tree)


def test_bulk_load_empty(tree):
    tree.bulk_load([])
    assert tree.entry_count == 0
    assert tree.height == 1
    validate_tree(tree)


def test_bulk_load_single_leaf(tree):
    tree.bulk_load(entries(3))
    assert tree.height == 1
    validate_tree(tree)


def test_bulk_load_replaces_previous_content(tree):
    tree.bulk_load(entries(50))
    tree.bulk_load([(500, 1), (600, 2)])
    assert list(tree.items()) == [(500, 1), (600, 2)]
    validate_tree(tree)


def test_bulk_load_rejects_unsorted(tree):
    with pytest.raises(IndexError_):
        tree.bulk_load([(2, 0), (1, 0)])


def test_bulk_load_unique_rejects_duplicates():
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=16)
    tree = BLinkTree(pool, unique=True, max_leaf_entries=8)
    with pytest.raises(UniqueViolationError):
        tree.bulk_load([(1, 0), (1, 1)])


def test_bulk_load_fill_factor_controls_leaf_count(tree):
    tree.bulk_load(entries(64), fill_factor=1.0)
    full = tree.leaf_count()
    tree.bulk_load(entries(64), fill_factor=0.5)
    assert tree.leaf_count() > full
    validate_tree(tree)


def test_bulk_load_bad_fill_factor(tree):
    with pytest.raises(ValueError):
        tree.bulk_load(entries(4), fill_factor=0.0)


def test_insert_after_bulk_load(tree):
    tree.bulk_load([(i * 2, i) for i in range(40)])
    tree.insert(5, 99)
    assert tree.search_one(5) == 99
    validate_tree(tree)


def test_leaf_cursor_covers_all_entries(tree):
    tree.bulk_load(entries(100))
    leaves = list(tree.leaves())
    assert [e for leaf in leaves for e in leaf.entries] == entries(100)
    assert len(leaves) == tree.leaf_count()


def test_leaf_cursor_from_key(tree):
    tree.bulk_load(entries(100))
    found = [e for leaf in tree.leaves(start_key=50) for e in leaf.entries]
    assert found[-1] == (99, 198)
    assert (50, 100) in found


def test_iter_leaf_ids_in_chain_order(tree):
    tree.bulk_load(entries(100))
    ids = [leaf.page_id for leaf in tree.leaves()]
    assert len(ids) == tree.leaf_count()
    assert len(set(ids)) == len(ids)
    assert ids[0] == tree.first_leaf_id


def test_write_leaf_entries_updates_count(tree):
    tree.bulk_load(entries(32))
    leaf_id = tree.first_leaf_id
    node = tree.read_leaf(leaf_id)
    tree.write_leaf_entries(leaf_id, node.entries[:2])
    assert tree.entry_count == 32 - (len(node.entries) - 2)


def test_unlink_and_free_then_rebuild(tree):
    tree.bulk_load(entries(64))
    # Empty the second leaf by hand, then free it.
    ids = [leaf.page_id for leaf in tree.leaves()]
    victim = ids[1]
    removed = tree.read_leaf(victim).entries
    tree.write_leaf_entries(victim, [])
    tree.unlink_and_free_leaves([victim])
    tree.rebuild_upper_levels()
    validate_tree(tree)
    remaining = [k for k, _ in tree.items()]
    assert all(k not in remaining for k, _ in removed)


def test_unlink_nonempty_leaf_rejected(tree):
    tree.bulk_load(entries(64))
    with pytest.raises(IndexError_):
        tree.unlink_and_free_leaves([tree.first_leaf_id])


def test_rebuild_with_summaries_matches_chain_walk(tree):
    tree.bulk_load(entries(64))
    summaries = [
        (leaf.first_key(), leaf.page_id) for leaf in tree.leaves()
    ]
    tree.rebuild_upper_levels(summaries)
    validate_tree(tree)
    assert list(tree.items()) == entries(64)


def test_unlink_first_leaf_moves_head(tree):
    tree.bulk_load(entries(64))
    first = tree.first_leaf_id
    tree.write_leaf_entries(first, [])
    tree.unlink_and_free_leaves([first])
    assert tree.first_leaf_id != first
    tree.rebuild_upper_levels()
    validate_tree(tree)


def test_merge_underfull_leaves(tree):
    tree.bulk_load(entries(64))
    # Starve most leaves by deleting three quarters of the entries.
    for key, value in entries(64):
        if key % 4 != 0:
            tree.delete(key, value)
    before = tree.leaf_count()
    merged = merge_underfull_leaves(tree)
    assert merged > 0
    assert tree.leaf_count() == before - merged
    validate_tree(tree)
    assert [k for k, _ in tree.items()] == [k for k in range(0, 64, 4)]


def test_bulk_load_pages_contiguous(tree):
    """Bulk-loaded leaves must be physically contiguous so sweeps are
    sequential — the property the whole paper leans on."""
    tree.bulk_load(entries(100))
    ids = [leaf.page_id for leaf in tree.leaves()]
    assert ids == list(range(ids[0], ids[0] + len(ids)))
