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


def test_chain_walks_and_leaf_writes_live_in_one_place():
    """One chain walker, one sweep kernel: outside ``btree/tree.py`` no
    ``while`` loop follows ``.right_id`` or reads ``first_leaf_id`` (in
    the tree only the walker and the point operations' move-right do),
    and exactly one function under ``core/`` rewrites a leaf."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    walkers, leaf_writers = set(), set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.While) and any(
                    isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Load)
                    and n.attr in ("right_id", "first_leaf_id")
                    for n in ast.walk(node)
                ):
                    walkers.add((rel, func.name))
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", "") == "write_leaf_entries"
                ):
                    leaf_writers.add((rel, func.name))
    assert walkers == {
        ("btree/tree.py", "_chain"),
        # Point operations: B-link move-right from a descended leaf.
        ("btree/tree.py", "search"),
        ("btree/tree.py", "range_scan"),
        ("btree/tree.py", "delete"),
        ("btree/tree.py", "_true_path"),
    }
    assert leaf_writers == {("core/bulk_ops.py", "_sweep")}


def test_partitioned_counts_each_page_it_reads_once(tree_and_disk):
    """One accounting rule for a sweep that starts at a key: the inner
    pages of the locating descent plus each leaf once — the distinct
    pages read, though the descent's leaf is read again by the walk."""
    tree, disk = tree_and_disk
    assert tree.height >= 3
    first_leaf = tree.first_leaf_id
    reads = []
    read = tree._read
    tree._read = lambda page_id: reads.append(page_id) or read(page_id)
    pairs = [(k, 1000 + k) for k in range(100, 120)]
    result = bd_index_partitioned(tree, pairs, 1 << 20, disk)
    assert result.partitions == 1 and len(result.deleted) == 20
    # The partition's sweep ends where the final classification pass
    # starts over from the first leaf.
    swept = reads[: reads.index(first_leaf)]
    assert len(swept) == len(set(swept)) + 1
    assert result.pages_visited == len(set(swept))


# ----------------------------------------------------------------------
# Stage level: protected entries and the WAL rule, for every method
# ----------------------------------------------------------------------
def _post_table_stage(variant):
    """A vertical DELETE run up to its post-table stage on ``I_R_B``,
    that stage forced to ``variant``."""
    from repro.catalog.database import Database
    from repro.core.executor import BulkDeleteOptions
    from repro.core.planner import choose_plan
    from repro.core.plans import BdMethod
    from repro.core.stages import POST_TABLE, Pipe, vertical_stages

    db = Database(page_size=512, memory_bytes=64 * 1024)
    values = populate(db)
    keys = values["A"][:60]
    plan = choose_plan(
        db, "R", "A", len(keys), prefer_method=BdMethod.SORT_MERGE,
        force_vertical=True,
    )
    (step,) = plan.steps_after_table()
    step.method = {
        "hash": BdMethod.HASH,
        "hash-overflow": BdMethod.HASH,
        "partitioned": BdMethod.PARTITIONED_HASH,
    }.get(variant, BdMethod.SORT_MERGE)
    options = BulkDeleteOptions(base_node_reorg=variant == "reorg")
    pipe = Pipe(db, db.table("R"), plan, keys, options)
    *before, post = vertical_stages(pipe)
    assert post.role == POST_TABLE and post.target == "I_R_B"
    for stage in before:
        stage.apply()
    if variant == "hash-overflow":
        db.memory_bytes = 256  # the RID set no longer fits: partition
        pipe._rid_set = None
    victims = sorted(
        (b, rid.pack()) for rid, (_, b, _) in pipe.rows
    )
    return db, post, victims


STAGE_VARIANTS = ["sort-merge", "hash", "partitioned", "hash-overflow", "reorg"]


@pytest.mark.parametrize("variant", STAGE_VARIANTS)
def test_stage_spares_protected_entries(variant):
    """§3.1.2: a concurrently installed entry re-using a victim RID —
    under the victim's key or a fresh one — survives every method when
    it is marked undeletable, and an unmarked twin does not."""
    db, post, victims = _post_table_stage(variant)
    tree = db.table("R").index("I_R_B").tree
    mid = len(victims) // 2
    same_key, (key2, rid2), (key3, rid3) = victims[mid - 1 : mid + 2]
    fresh_key, twin = (key2 + 1, rid2), (key3 + 1, rid3)
    assert not tree.contains(key2 + 1) and not tree.contains(key3 + 1)
    tree.insert(*fresh_key)
    tree.insert(*twin)
    post.undeletable = {same_key, fresh_key}
    result = post.apply()
    assert tree.contains(*same_key) and tree.contains(*fresh_key)
    expected = [v for v in victims if v != same_key]
    if variant in ("hash", "partitioned", "hash-overflow"):
        # The RID probe takes the unmarked twin with its victim.
        assert not tree.contains(*twin)
        expected.append(twin)
    if variant == "hash-overflow":
        assert result.partitions > 1
    assert sorted(result.deleted) == sorted(expected)
    assert tree.entry_count == 500 + 2 - len(expected)
    validate_tree(tree)


@pytest.mark.parametrize("variant", ["sort-merge", "reorg"])
def test_stage_redo_hook_sees_each_leaf_before_it_changes(variant):
    """The WAL rule: the hook gets a leaf's victims while the page
    still holds them — for the base-node reorg sweep exactly as for the
    plain one, batch for batch."""
    db, post, victims = _post_table_stage(variant)
    tree = db.table("R").index("I_R_B").tree
    batches = []

    def redo(removed):
        for key, rid in removed:
            assert tree.contains(key, rid)
        batches.append(list(removed))

    post.redo = redo
    result = post.apply()
    assert [e for batch in batches for e in batch] == result.deleted
    assert sorted(result.deleted) == victims
    for key, rid in victims:
        assert not tree.contains(key, rid)
    _db, plain, _ = _post_table_stage("sort-merge")
    expected = []
    plain.redo = lambda removed: expected.append(list(removed))
    plain.apply()
    assert batches == expected
