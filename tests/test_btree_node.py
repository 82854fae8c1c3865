"""The columnar B-link node: column operations against a list-of-tuples
model, page-byte identity with the ``struct`` encoding, and guards that
the tree's point paths stay on the columns."""

import bisect
import struct
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import node as node_module
from repro.btree.maintenance import validate_tree
from repro.btree.node import (
    ENTRY_SIZE,
    HEADER_SIZE,
    MAX_KEY,
    MIN_KEY,
    Node,
    node_capacity,
)
from repro.btree.tree import BLinkTree
from repro.errors import IndexError_, UniqueViolationError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests import reference_codec

PAGE_SIZE = 4096

# Few distinct keys, so duplicate runs are the common case.
node_keys = st.sampled_from([MIN_KEY, MIN_KEY + 1, -7, -1, 0, 1, 7, MAX_KEY - 1, MAX_KEY])
node_values = st.sampled_from([MIN_KEY, -3, 0, 1, 2, 3, 1 << 40, MAX_KEY])
node_ops = st.one_of(
    st.tuples(st.just("insert_sorted"), node_keys, node_values),
    st.tuples(st.just("delete_at"), st.integers(0, 400)),
    st.tuples(st.just("split_off"), st.integers(0, 400), st.booleans()),
    st.tuples(st.just("assign"), st.lists(st.tuples(node_keys, node_values), max_size=12)),
)


def assert_matches(node: Node, model: list) -> None:
    assert node.entries == tuple(model)
    assert list(node.keys) == [k for k, _ in model]
    assert list(node.values) == [v for _, v in model]
    assert node.entry_count == len(model)
    if model:
        assert (node.first_key(), node.last_key()) == (model[0][0], model[-1][0])
    else:
        with pytest.raises(IndexError_):
            node.first_key()
        with pytest.raises(IndexError_):
            node.last_key()


# ----------------------------------------------------------------------
# (a) column operations against a sorted list of tuples
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(st.lists(node_ops, max_size=40), node_keys)
def test_column_operations_match_list_model(ops, probe):
    node, model = Node(1, 0), []
    for op in ops:
        if op[0] == "insert_sorted":
            node.insert_sorted(op[1], op[2])
            bisect.insort(model, (op[1], op[2]))
        elif op[0] == "delete_at" and model:
            pos = op[1] % len(model)
            node.delete_at(pos)
            del model[pos]
        elif op[0] == "split_off":
            mid = op[1] % (len(model) + 1)
            sibling = Node(2, 0, entries=[(5, 5)])
            node.split_off(mid, sibling)
            model, upper = model[:mid], model[mid:]
            assert_matches(sibling, upper)
            if op[2]:  # carry on with the upper half
                node, model = sibling, upper
        elif op[0] == "assign":
            model = sorted(op[1])
            node.entries = model
        assert_matches(node, model)
        lo, hi = node.key_range(probe)
        assert [k for k, _ in model[lo:hi]] == [probe] * (hi - lo)
        assert probe not in [k for k, _ in model[:lo] + model[hi:]]


def test_entries_view_is_immutable_and_built_once_per_change():
    node = Node(1, 0, entries=[(1, 10), (2, 20)])
    view = node.entries
    assert node.entries is view
    with pytest.raises(AttributeError):
        view.append((3, 30))
    with pytest.raises(TypeError):
        view[0] = (0, 0)
    with pytest.raises(TypeError):
        del view[0]
    node.insert_at(2, 3, 30)
    assert view == ((1, 10), (2, 20))
    assert node.entries == ((1, 10), (2, 20), (3, 30))


# ----------------------------------------------------------------------
# (b) byte identity with the struct encoding, tail left alone
# ----------------------------------------------------------------------
def _entries(count: int, salt: int = 0) -> list:
    return [(i * 3 - 300 + salt, (i * 7919 + salt) % 1000) for i in range(count)]


def test_pack_matches_struct_encoding_and_keeps_the_tail():
    assert node_capacity(PAGE_SIZE) == 254
    page = bytearray(PAGE_SIZE)
    full = Node(9, 0, entries=_entries(254, salt=1), left_id=3, right_id=4)
    full.pack_into(page)
    stale_tail = bytes(page[HEADER_SIZE + 200 * ENTRY_SIZE :])
    assert any(stale_tail)

    node = Node(9, 0, entries=_entries(200), left_id=3, right_id=4, high_key=-5)
    node.pack_into(page)
    expected = bytearray(PAGE_SIZE)
    reference_codec.node_pack_into(full, expected)
    reference_codec.node_pack_into(node, expected)
    assert page == expected
    assert bytes(page[HEADER_SIZE + 200 * ENTRY_SIZE :]) == stale_tail
    flat = [x for entry in _entries(200) for x in entry]
    assert bytes(page[HEADER_SIZE : Node.live_end(page)]) == struct.pack(
        "<400q", *flat
    )

    back = Node.unpack_from(9, bytes(page))
    assert back.entries == tuple(_entries(200))
    assert (back.level, back.left_id, back.right_id, back.high_key) == (0, 3, 4, -5)
    assert Node.entry_count_of(page) == 200
    assert Node.live_end(page) == HEADER_SIZE + 200 * ENTRY_SIZE


def test_replace_entries_edits_only_count_and_entries():
    page = bytearray(PAGE_SIZE)
    Node(9, 0, entries=_entries(254), left_id=3, right_id=4, high_key=11).pack_into(page)
    expected = bytearray(page)
    kept = _entries(254)[::3]
    assert Node.replace_entries(page, kept) == 254
    assert reference_codec.node_replace_entries(expected, kept) == 254
    assert page == expected
    back = Node.unpack_from(9, page)
    assert back.entries == tuple(kept)
    assert (back.left_id, back.right_id, back.high_key) == (3, 4, 11)
    assert Node.replace_entries(page, []) == len(kept)
    assert Node.entry_count_of(page) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(node_keys, node_values), max_size=30))
def test_extreme_values_roundtrip_like_struct(pairs):
    node = Node(2, 1, entries=sorted(pairs), high_key=MIN_KEY)
    page, expected = bytearray(1024), bytearray(1024)
    node.pack_into(page)
    reference_codec.node_pack_into(node, expected)
    assert page == expected
    assert Node.unpack_from(2, page).entries == tuple(sorted(pairs))
    assert reference_codec.node_unpack_from(2, page).entries == tuple(sorted(pairs))


# ----------------------------------------------------------------------
# (c) the big-endian branch
# ----------------------------------------------------------------------
def test_other_byte_order_swaps_every_word_and_roundtrips(monkeypatch):
    node = Node(9, 0, entries=_entries(50) + [(MAX_KEY, MIN_KEY)])
    native = bytearray(1024)
    node.pack_into(native)
    monkeypatch.setattr(node_module, "_BIG_ENDIAN", not node_module._BIG_ENDIAN)
    swapped = bytearray(1024)
    node.pack_into(swapped)
    end = Node.live_end(native)
    assert swapped[:HEADER_SIZE] == native[:HEADER_SIZE]
    assert swapped[end:] == native[end:]
    words = [bytes(native[i : i + 8]) for i in range(HEADER_SIZE, end, 8)]
    assert bytes(swapped[HEADER_SIZE:end]) == b"".join(w[::-1] for w in words)
    assert Node.unpack_from(9, swapped).entries == node.entries


# ----------------------------------------------------------------------
# (d) capacity
# ----------------------------------------------------------------------
def test_over_capacity_pack_raises_and_leaves_the_page_alone():
    page = bytearray(512)
    Node(1, 0, entries=_entries(30)).pack_into(page)  # exactly full
    before = bytes(page)
    with pytest.raises(IndexError_):
        Node(1, 0, entries=_entries(31)).pack_into(page)
    with pytest.raises(IndexError_):
        Node.replace_entries(page, _entries(31))
    assert bytes(page) == before and len(page) == 512


# ----------------------------------------------------------------------
# the tree's point paths never build the entries view
# ----------------------------------------------------------------------
def _no_entries(*_args):
    raise AssertionError("a point operation touched Node.entries")


@contextmanager
def entries_forbidden(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(Node, "entries", property(_no_entries, _no_entries))
        yield


def small_tree(unique: bool = False) -> BLinkTree:
    pool = BufferPool(SimulatedDisk(page_size=512), capacity_pages=256)
    return BLinkTree(pool, unique=unique, max_leaf_entries=4, max_inner_entries=4)


@pytest.mark.parametrize("unique", [False, True])
def test_point_operations_stay_on_the_columns(monkeypatch, unique):
    tree = small_tree(unique)
    keys = [(i * 37) % 101 for i in range(101)]
    with entries_forbidden(monkeypatch):
        for key in keys[:3]:
            tree.insert(key, key + 1000)  # no split yet
        assert tree.height == 1
        for key in keys[3:]:
            tree.insert(key, key + 1000)
        assert tree.height >= 3
        if unique:
            with pytest.raises(UniqueViolationError):
                tree.insert(keys[5], 1)
        else:
            tree.insert(keys[5], 1)
            tree.insert(keys[5], 2000)
            # duplicates may span leaves, so their values are only
            # locally ordered
            assert sorted(tree.search(keys[5])) == [1, keys[5] + 1000, 2000]
            assert tree.delete(keys[5], 2000) and tree.delete(keys[5], 1)
        assert tree.search(40) == [1040]
        assert tree.search(-1) == [] and not tree.delete(-1)
        assert list(tree.range_scan(10, 19)) == [(k, k + 1000) for k in range(10, 20)]
        assert not tree.delete(40, 7)
    validate_tree(tree)
    pages_before = tree.node_count()
    with entries_forbidden(monkeypatch):
        for key in range(20, 60):  # empties whole leaves: free-at-empty
            assert tree.delete(key, key + 1000)
    validate_tree(tree)
    assert tree.node_count() < pages_before
    assert [k for k, _ in tree.items()] == list(range(20)) + list(range(60, 101))
    with entries_forbidden(monkeypatch):
        for key in list(range(20)) + list(range(60, 100)):
            assert tree.delete(key)
        assert tree.height == 1  # the root collapsed back to one leaf
        assert tree.search(100) == [1100]
    validate_tree(tree)
