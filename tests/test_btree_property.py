"""Property-based tests: the B-link tree against a reference model.

Hypothesis drives random operation sequences and cross-checks every
result against a plain sorted-list model, then validates all structural
invariants.  This is the main line of defence for the tree code the
whole reproduction sits on.
"""

from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.btree.maintenance import validate_tree
from repro.btree.tree import BLinkTree
from repro.core.bulk_ops import bd_index_sort_merge
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests.reference_codec import durable_pages, use_reference_codec


def make_tree(leaf_cap=4, inner_cap=4):
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=256)
    return BLinkTree(
        pool, max_leaf_entries=leaf_cap, max_inner_entries=inner_cap
    )


keys = st.integers(min_value=-50, max_value=50)
values = st.integers(min_value=0, max_value=7)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(keys, values), max_size=120))
def test_inserts_match_sorted_model(pairs):
    tree = make_tree()
    for key, value in pairs:
        tree.insert(key, value)
    items = list(tree.items())
    # Same multiset of entries, in key order.  Values of duplicate keys
    # are only locally ordered (duplicates may span leaves).
    assert sorted(items) == sorted(pairs)
    assert [k for k, _ in items] == sorted(k for k, _ in pairs)
    validate_tree(tree)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(keys, values), unique=True, max_size=100),
    st.data(),
)
def test_insert_then_delete_subset(pairs, data):
    tree = make_tree()
    for key, value in pairs:
        tree.insert(key, value)
    to_delete = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]))
    for key, value in to_delete:
        assert tree.delete(key, value)
    expected = sorted(set(pairs) - set(to_delete))
    items = list(tree.items())
    assert sorted(items) == expected
    assert [k for k, _ in items] == [k for k, _ in expected]
    validate_tree(tree)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(keys, values), unique=True, max_size=120))
def test_bulk_load_equals_incremental(pairs):
    loaded = make_tree()
    loaded.bulk_load(sorted(pairs))
    incremental = make_tree()
    for key, value in pairs:
        incremental.insert(key, value)
    assert sorted(loaded.items()) == sorted(incremental.items())
    validate_tree(loaded)
    validate_tree(incremental)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(keys, values), unique=True, max_size=100),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
)
def test_range_scan_matches_model(pairs, lo, hi):
    tree = make_tree()
    tree.bulk_load(sorted(pairs))
    expected = sorted((k, v) for k, v in pairs if lo <= k <= hi)
    assert list(tree.range_scan(lo, hi)) == expected


def _durable_image_after(pairs, doomed, swept):
    """Insert, point-delete and leaf-sweep on a fresh tree; the bytes on
    its disk afterwards (stale tails and freed pages included)."""
    tree = make_tree()
    for key, value in pairs:
        tree.insert(key, value)
    for key, value in doomed:
        assert tree.delete(key, value)
    bd_index_sort_merge(tree, swept, tree.pool.disk)
    validate_tree(tree)
    tree.pool.flush_all()
    return durable_pages(tree.pool.disk)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.lists(st.tuples(keys, values), unique=True, max_size=100),
    st.data(),
)
def test_durable_pages_identical_to_reference_codec(monkeypatch, pairs, data):
    subset = st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    doomed = data.draw(subset)
    swept = sorted(set(data.draw(subset)) - set(doomed))
    columnar = _durable_image_after(pairs, doomed, swept)
    with monkeypatch.context() as patch:
        use_reference_codec(patch)
        reference = _durable_image_after(pairs, doomed, swept)
    assert columnar == reference


class TreeMachine(RuleBasedStateMachine):
    """Stateful test: arbitrary interleavings of insert/delete/search."""

    def __init__(self):
        super().__init__()
        self.tree = make_tree()
        self.model: List[Tuple[int, int]] = []
        self._value_counter = 0

    @rule(key=keys)
    def insert(self, key):
        self._value_counter += 1
        value = self._value_counter
        self.tree.insert(key, value)
        self.model.append((key, value))

    @rule(key=keys)
    def delete_any_with_key(self, key):
        matching = sorted(v for k, v in self.model if k == key)
        if matching:
            assert self.tree.delete(key, matching[0])
            self.model.remove((key, matching[0]))
        else:
            assert not self.tree.delete(key)

    @rule(key=keys)
    def search(self, key):
        expected = sorted(v for k, v in self.model if k == key)
        assert sorted(self.tree.search(key)) == expected

    @invariant()
    def counts_agree(self):
        assert self.tree.entry_count == len(self.model)

    @invariant()
    def structure_valid(self):
        validate_tree(self.tree)


TestTreeMachine = TreeMachine.TestCase
TestTreeMachine.settings = settings(
    max_examples=25,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
