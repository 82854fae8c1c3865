"""The sweep kernel against the five loops it replaced.

``tests/reference_sweeps.py`` keeps the parent's hand-written ``bd``
loops verbatim.  Every method is run twice on identically built trees —
once through :func:`repro.core.bulk_ops._sweep`, once through the
reference — and must leave the same result, the same disk statistics
and clock, and byte-identical pages (freed ones included).  A plain
sorted-list model then checks that the methods agree with each other,
including on the protected (``undeletable``) entries only the kernel
knows for every method.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.maintenance import validate_tree
from repro.btree.node import MAX_KEY, MIN_KEY
from repro.btree.tree import BLinkTree
from repro.core import bulk_ops, reorg
from repro.query.hashtable import (
    BYTES_PER_SET_ENTRY,
    BoundedHashSet,
    HashTableOverflowError,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests import reference_sweeps
from tests.reference_codec import durable_pages

METHODS = ("sort-merge", "hash", "partitioned", "reorg", "probe")

#: A few hot keys, the extremes included — with four entries a leaf, a
#: key drawn a dozen times spans three leaves or more — over a thin
#: spread that lets a small memory budget cut several partitions.
KEYS = st.one_of(
    st.sampled_from([MIN_KEY, MIN_KEY + 1, -7, 0, 3, MAX_KEY - 1, MAX_KEY]),
    st.integers(min_value=-40, max_value=40),
)
RIDS = st.integers(min_value=0, max_value=400)


@st.composite
def cases(draw, unique_rids=False):
    """A tree's contents and a delete list over it.

    By default RIDs may repeat under several keys and absent pairs may
    name live RIDs, which the RID-probing methods then delete too — fine
    for comparing two implementations of one method.  ``unique_rids``
    gives every entry its own RID and keeps absent RIDs out of the
    tree, so all methods name the same victims.
    """
    unique_by = (lambda e: e[1]) if unique_rids else (lambda e: e)
    entries = sorted(draw(st.lists(
        st.tuples(KEYS, RIDS), min_size=1, max_size=90, unique_by=unique_by
    )))
    victims = draw(st.lists(st.sampled_from(entries), max_size=40))
    absent = draw(st.lists(
        st.tuples(KEYS, st.integers(1000, 1100) if unique_rids else RIDS),
        max_size=8,
    ))
    return {
        "entries": entries,
        # Present, absent and repeated pairs.
        "pairs": sorted(victims + absent),
        "match_rid": draw(st.booleans()),
        "compact": draw(st.booleans()),
        "pool_pages": draw(st.sampled_from([6, 64])),
        "memory_pairs": draw(st.sampled_from([3, 1000])),
        "protected": set(draw(st.lists(st.sampled_from(entries), max_size=6))),
    }


def build(case):
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=case["pool_pages"])
    tree = BLinkTree(pool, max_leaf_entries=4, max_inner_entries=4)
    tree.bulk_load(case["entries"])
    pool.flush_all()
    return tree, disk


def apply(impl_ops, impl_reorg, method, case, tree, disk, **extra):
    pairs, match_rid, compact = case["pairs"], case["match_rid"], case["compact"]
    if method == "sort-merge":
        return impl_ops.bd_index_sort_merge(
            tree, pairs, disk, match_rid, compact, **extra
        )
    if method == "hash":
        rid_set = BoundedHashSet(1 << 20).build([rid for _, rid in pairs])
        return impl_ops.bd_index_hash_probe(
            tree, rid_set, disk, compact, **extra
        )
    if method == "partitioned":
        memory_bytes = case["memory_pairs"] * BYTES_PER_SET_ENTRY
        return impl_ops.bd_index_partitioned(
            tree, pairs, memory_bytes, disk, compact, **extra
        )
    if method == "reorg":
        return impl_reorg.sweep_with_base_node_reorg(
            tree, pairs, disk, match_rid, **extra
        )
    return impl_ops.collect_index_matches(
        tree, [key for key, _ in pairs], disk
    )


def run(impl_ops, impl_reorg, method, case, **extra):
    """One method on a fresh tree; everything observable about it."""
    tree, disk = build(case)
    try:
        result = apply(impl_ops, impl_reorg, method, case, tree, disk, **extra)
    except HashTableOverflowError:
        # One key's duplicates outgrew a partition's budget (the range
        # partitioner cannot split a key): both sides must say so.
        return "overflow"
    validate_tree(tree)
    contents = list(tree.items())
    tree.pool.flush_all()
    return {
        "result": (
            result.structure, result.deleted, result.pages_visited,
            result.pages_freed, result.partitions,
        ),
        "stats": disk.stats.snapshot(),
        "clock": disk.clock.now_ms,
        "pages": durable_pages(disk),
        "contents": contents,
    }


@settings(max_examples=120, deadline=None)
@given(cases())
def test_kernel_matches_reference_loops(case):
    for method in METHODS:
        kernel = run(bulk_ops, reorg, method, case)
        reference = run(reference_sweeps, reference_sweeps, method, case)
        assert kernel == reference, method


@settings(max_examples=60, deadline=None)
@given(cases())
def test_hash_probe_protection_matches_reference(case):
    """The one method whose reference loop knew ``undeletable``."""
    protected = case["protected"]
    kernel = run(bulk_ops, reorg, "hash", case, undeletable=protected)
    reference = run(
        reference_sweeps, reference_sweeps, "hash", case,
        undeletable=protected,
    )
    assert kernel == reference


def model(case, method, protected):
    """What a plain list says the tree holds afterwards."""
    pairs = case["pairs"]
    if method == "probe":
        return case["entries"]
    if method in ("sort-merge", "reorg") and not case["match_rid"]:
        keys = {key for key, _ in pairs}
        doomed = [e for e in case["entries"] if e[0] in keys]
    else:
        doomed = [e for e in case["entries"] if e in set(pairs)]
    return sorted(set(case["entries"]) - set(doomed) | protected)


@settings(max_examples=120, deadline=None)
@given(cases(unique_rids=True), st.booleans())
def test_every_method_agrees_with_a_sorted_list(case, protect):
    protected = case["protected"] if protect else set()
    finals = {}
    for method in METHODS:
        extra = {} if method == "probe" else {"undeletable": protected}
        after = run(bulk_ops, reorg, method, case, **extra)
        if after == "overflow":
            return
        finals[method] = sorted(after["contents"])
        assert finals[method] == model(case, method, protected), method
        deleted = after["result"][1]
        if method != "probe":
            assert sorted(deleted + after["contents"]) == case["entries"]
            assert not protected.intersection(deleted)
    if case["match_rid"]:
        # One operator: key+RID, RID alone and RIDs by key range all
        # name the same victims.
        assert len({tuple(finals[m]) for m in METHODS[:4]}) == 1


def test_duplicate_key_run_spans_three_leaves():
    """The boundary-key carry across more than one leaf boundary."""
    entries = [(5, rid) for rid in range(14)] + [(6, 100)]
    case = {
        "entries": sorted(entries), "pairs": [(5, 1), (5, 6), (5, 13)],
        "match_rid": True, "compact": False, "pool_pages": 64,
        "memory_pairs": 1000, "protected": set(),
    }
    tree, _ = build(case)
    assert sum(1 for leaf in tree.leaves() if 5 in leaf.keys) >= 3
    for method in METHODS:
        kernel = run(bulk_ops, reorg, method, case)
        assert kernel == run(reference_sweeps, reference_sweeps, method, case)
