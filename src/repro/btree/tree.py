"""A B-link tree (B+-tree with sibling-chained levels).

This is the index structure all of the paper's experiments run on:

* all ``(key, RID)`` entries live in the leaves; inner nodes hold only
  separator keys (Section 2.2 of the paper),
* the nodes of every level are chained left-to-right (B-link
  organization [10]) so leaf levels can be swept sequentially and inner
  levels can be rebuilt layer by layer,
* record-at-a-time deletion follows Jannink [7] with the free-at-empty
  policy of Johnson & Shasha [9]: a node is reclaimed only when it is
  completely empty (merge-at-half is available for ablations, see
  :mod:`repro.btree.maintenance`),
* leaf and inner fan-out can be capped independently — the paper's
  Experiment 3 builds a height-4 index by artificially shrinking inner
  fan-out to 100 entries, and the workload generator does the same.

Keys and values are signed 64-bit integers; values are packed RIDs for
table indexes and child page ids in inner nodes.  Duplicate keys are
supported by ordering entries on ``(key, value)``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, count
from operator import eq, gt
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.btree.node import (
    MAX_KEY,
    MIN_KEY,
    NO_NODE,
    Node,
    node_capacity,
    pair_columns,
)
from repro.errors import IndexError_, UniqueViolationError
from repro.storage.buffer import BufferPool

#: Fraction of a node filled during bulk load; some slack avoids a split
#: storm on the first trickle of inserts after loading.
DEFAULT_FILL_FACTOR = 0.9

Entry = Tuple[int, int]


class BLinkTree:
    """Single-writer B-link tree over a buffer pool."""

    def __init__(
        self,
        pool: BufferPool,
        name: str = "index",
        unique: bool = False,
        max_leaf_entries: Optional[int] = None,
        max_inner_entries: Optional[int] = None,
    ) -> None:
        self.pool = pool
        self.name = name
        self.unique = unique
        self.file_id = pool.disk.create_file()
        physical = node_capacity(pool.disk.page_size)
        self.leaf_capacity = self._clamp_capacity(max_leaf_entries, physical)
        self.inner_capacity = self._clamp_capacity(max_inner_entries, physical)
        root = self._allocate_node(level=0)
        self.root_id = root.page_id
        self.first_leaf_id = root.page_id
        self.height = 1
        self._entry_count = 0

    @staticmethod
    def _clamp_capacity(requested: Optional[int], physical: int) -> int:
        if physical < 4:
            raise IndexError_("page size too small for a B-tree node")
        if requested is None:
            return physical
        if requested < 4:
            raise IndexError_("node capacity must be at least 4 entries")
        return min(requested, physical)

    # ------------------------------------------------------------------
    # node I/O
    # ------------------------------------------------------------------
    def _read(self, page_id: int) -> Node:
        with self.pool.pin(page_id) as pinned:
            return Node.unpack_from(page_id, pinned.data)

    def _write(self, node: Node) -> None:
        with self.pool.pin(node.page_id) as pinned:
            node.pack_into(pinned.data)
            pinned.mark_dirty()

    def _allocate_node(self, level: int) -> Node:
        with self.pool.pin_new(self.file_id) as pinned:
            node = Node(pinned.page_id, level)
            node.pack_into(pinned.data)
            pinned.mark_dirty()
        return node

    def _free_node(self, page_id: int) -> None:
        self.pool.discard(page_id)
        self.pool.disk.free_page(page_id)

    def capacity_for(self, node: Node) -> int:
        return self.leaf_capacity if node.is_leaf else self.inner_capacity

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def _route(self, inner: Node, key: int) -> int:
        """Child page id an operation on ``key`` must descend into.

        Separators are the minimum keys of their subtrees, and a split
        may leave copies of one key on both sides of a separator equal
        to it.  Descending therefore starts at the last child whose
        separator is *strictly below* the key (that child's range is
        inclusive of the next separator) and lookups continue rightward
        along the sibling chain when needed.
        """
        return inner.values[max(0, bisect_left(inner.keys, key) - 1)]

    def _descend(self, key: int) -> List[Node]:
        """Root-to-leaf path for ``key`` (each step is one page access)."""
        path: List[Node] = []
        node = self._read(self.root_id)
        path.append(node)
        while not node.is_leaf:
            node = self._read(self._route(node, key))
            path.append(node)
        return path

    def find_leaf(self, key: int) -> Node:
        return self._descend(key)[-1]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def search(self, key: int) -> List[int]:
        """Return the values of every entry with ``key``.

        Descends to the first leaf that may hold ``key`` and continues
        rightward along the chain while matches can still follow —
        duplicate keys (and keys sitting on a split boundary) may span
        several leaves.
        """
        node = self.find_leaf(key)
        values: List[int] = []
        while True:
            lo, hi = node.key_range(key)
            values.extend(node.values[lo:hi])
            if node.right_id == NO_NODE:
                break
            if node.keys and node.keys[-1] > key:
                break
            node = self._read(node.right_id)
        return values

    def search_one(self, key: int) -> Optional[int]:
        values = self.search(key)
        return values[0] if values else None

    def contains(self, key: int, value: Optional[int] = None) -> bool:
        values = self.search(key)
        if value is None:
            return bool(values)
        return value in values

    def range_scan(self, lo: int = MIN_KEY, hi: int = MAX_KEY) -> Iterator[Entry]:
        """Yield entries with ``lo <= key <= hi`` in key order."""
        node = self.find_leaf(lo)
        while True:
            start = bisect_left(node.keys, lo)
            stop = bisect_right(node.keys, hi, start)
            yield from zip(node.keys[start:stop], node.values[start:stop])
            if stop < node.entry_count or node.right_id == NO_NODE:
                return
            node = self._read(node.right_id)

    def items(self) -> Iterator[Entry]:
        return self.range_scan()

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        """Insert one entry, splitting on the way up as needed."""
        path = self._descend(key)
        leaf = path[-1]
        if self.unique and self.contains(key):
            raise UniqueViolationError(
                f"duplicate key {key} in unique index {self.name}"
            )
        leaf.insert_sorted(key, value)
        self._entry_count += 1
        if leaf.entry_count > self.capacity_for(leaf):
            self._split(path)
        else:
            self._write(leaf)

    def _split(self, path: List[Node]) -> None:
        node = path[-1]
        mid = node.entry_count // 2
        sibling = self._allocate_node(node.level)
        node.split_off(mid, sibling)
        sibling.right_id = node.right_id
        sibling.left_id = node.page_id
        node.right_id = sibling.page_id
        sibling.high_key = node.high_key
        node.high_key = sibling.first_key()
        if sibling.right_id != NO_NODE:
            right = self._read(sibling.right_id)
            right.left_id = sibling.page_id
            self._write(right)
        self._write(node)
        self._write(sibling)
        separator = sibling.first_key()
        if len(path) == 1:
            # The split node was the root: grow the tree by one level.
            new_root = self._allocate_node(node.level + 1)
            new_root.insert_at(
                0, node.first_key() if node.entry_count else MIN_KEY, node.page_id
            )
            new_root.insert_at(1, separator, sibling.page_id)
            self._write(new_root)
            self.root_id = new_root.page_id
            self.height += 1
            return
        parent = path[-2]
        pos = self._child_position(parent, node.page_id)
        # Child 0 may carry a stale-high separator (it absorbs every key
        # below the next separator); after a split the new sibling's
        # separator must not sort below it, so refresh it to the node's
        # true minimum.
        if parent.keys[pos] > node.first_key():
            parent.delete_at(pos)
            parent.insert_at(pos, node.first_key(), node.page_id)
        parent.insert_at(pos + 1, separator, sibling.page_id)
        if parent.entry_count > self.capacity_for(parent):
            self._split(path[:-1])
        else:
            self._write(parent)

    # ------------------------------------------------------------------
    # delete (record-at-a-time, the paper's horizontal baseline)
    # ------------------------------------------------------------------
    def delete(self, key: int, value: Optional[int] = None) -> bool:
        """Delete one entry with ``key`` (and ``value`` if given).

        Returns ``True`` when an entry was removed.  This is the
        traversal-per-record path used by the traditional executors.
        The descended leaf may be one step left of the match (split
        boundaries and duplicate runs), so the search continues
        rightward along the chain; free-at-empty then locates the
        emptied leaf\'s true ancestor chain by walking each level of the
        descended path rightward (the B-link property).
        """
        path = self._descend(key)
        node = path[-1]
        while True:
            idx = self._find_entry(node, key, value)
            if idx is not None:
                node.delete_at(idx)
                self._entry_count -= 1
                if node.entry_count == 0 and self.height > 1:
                    self._free_empty_leaf(self._true_path(node, path))
                else:
                    self._write(node)
                return True
            if node.right_id == NO_NODE:
                return False
            if node.keys and node.keys[-1] > key:
                return False
            node = self._read(node.right_id)

    def _true_path(self, leaf: Node, approx_path: List[Node]) -> List[Node]:
        """Root-to-``leaf`` path when ``leaf`` lies at or right of the
        descended path\'s leaf.

        Every true ancestor of ``leaf`` sits at-or-right of the
        corresponding node on the descended path, so each level is found
        by walking its sibling chain rightward — the classic B-link
        move-right, applied bottom-up.
        """
        if approx_path[-1].page_id == leaf.page_id:
            return approx_path[:-1] + [leaf]
        chain: List[Node] = [leaf]
        for depth in range(len(approx_path) - 2, -1, -1):
            child_pid = chain[0].page_id
            node = approx_path[depth]
            while child_pid not in node.values:
                if node.right_id == NO_NODE:  # pragma: no cover
                    raise IndexError_(
                        f"node {child_pid} unreachable from level "
                        f"{node.level}"
                    )
                node = self._read(node.right_id)
            chain.insert(0, node)
        return chain

    @staticmethod
    def _find_entry(node: Node, key: int, value: Optional[int]) -> Optional[int]:
        lo, hi = node.key_range(key)
        if value is None:
            return lo if lo < hi else None
        run = node.values[lo:hi]
        return lo + run.index(value) if value in run else None

    @staticmethod
    def _child_position(parent: Node, child_id: int) -> int:
        try:
            return parent.values.index(child_id)
        except ValueError:  # pragma: no cover - structural invariant
            raise IndexError_(
                f"child {child_id} not found in parent {parent.page_id}"
            ) from None

    def _free_empty_leaf(self, path: List[Node]) -> None:
        """Free-at-empty: reclaim an empty node and fix parents."""
        node = path[-1]
        self._unlink_from_chain(node)
        if node.page_id == self.first_leaf_id:
            self.first_leaf_id = node.right_id
        self._free_node(node.page_id)
        self._remove_child(path[:-1], node.page_id)
        self._maybe_collapse_root()

    def _unlink_from_chain(self, node: Node) -> None:
        if node.left_id != NO_NODE:
            left = self._read(node.left_id)
            left.right_id = node.right_id
            left.high_key = node.high_key
            self._write(left)
        if node.right_id != NO_NODE:
            right = self._read(node.right_id)
            right.left_id = node.left_id
            self._write(right)

    def _remove_child(self, path: List[Node], child_id: int) -> None:
        parent = path[-1]
        parent.delete_at(self._child_position(parent, child_id))
        if parent.entry_count == 0 and len(path) > 1:
            self._unlink_from_chain(parent)
            self._free_node(parent.page_id)
            self._remove_child(path[:-1], parent.page_id)
        else:
            self._write(parent)

    def _maybe_collapse_root(self) -> None:
        while True:
            root = self._read(self.root_id)
            if root.is_leaf or root.entry_count != 1:
                return
            child_id = root.values[0]
            self._free_node(root.page_id)
            self.root_id = child_id
            self.height -= 1

    # ------------------------------------------------------------------
    # bulk operations (used by the vertical bulk-delete plans)
    # ------------------------------------------------------------------
    def bulk_load(
        self,
        entries: Sequence[Entry],
        fill_factor: float = DEFAULT_FILL_FACTOR,
    ) -> None:
        """:meth:`bulk_load_columns` from ``(key, value)``-sorted pairs."""
        self.bulk_load_columns(*pair_columns(entries), fill_factor=fill_factor)

    def bulk_load_columns(
        self,
        keys: array[int],
        values: array[int],
        fill_factor: float = DEFAULT_FILL_FACTOR,
    ) -> None:
        """Replace the tree's contents from ``(key, value)``-sorted
        columns (two equally long ``array('q')``).

        Builds the tree bottom-up with contiguously allocated pages, so
        later leaf sweeps are billed as sequential I/O — the same effect
        a freshly created index has on a real disk.  Each leaf takes a
        slice of the columns; no pair is materialised.
        """
        if not 0.1 <= fill_factor <= 1.0:
            raise ValueError("fill factor must be in [0.1, 1.0]")
        self._check_sorted(keys, values)
        self._drop_all_nodes()
        if not keys:
            root = self._allocate_node(level=0)
            self.root_id = root.page_id
            self.first_leaf_id = root.page_id
            self.height = 1
            self._entry_count = 0
            return
        per_leaf = max(2, int(self.leaf_capacity * fill_factor))
        first_keys, page_ids = self._build_level(
            keys, values, level=0, per_node=per_leaf
        )
        self.first_leaf_id = page_ids[0]
        self._entry_count = len(keys)
        self._build_upper_from(first_keys, page_ids, fill_factor)

    def _check_sorted(self, keys: array[int], values: array[int]) -> None:
        """Raise on the first entry out of ``(key, value)`` order, or on
        the first duplicate key of a unique tree, whichever comes first."""
        key_list = keys.tolist()
        if len(set(key_list)) == len(key_list) and key_list == sorted(key_list):
            return  # strictly ascending keys: no pair can be out of order
        following = key_list[1:]
        first_bad = next(compress(count(1), map(gt, key_list, following)), None)
        for i in compress(count(1), map(eq, key_list, following)):
            if first_bad is not None and i > first_bad:
                break
            if values[i - 1] > values[i]:
                first_bad = i
                break
            if self.unique:
                raise UniqueViolationError(
                    f"duplicate key {keys[i]} in unique index {self.name}"
                )
        if first_bad is not None:
            raise IndexError_("bulk_load input must be sorted")

    def _build_level(
        self,
        keys: array[int],
        values: array[int],
        level: int,
        per_node: int,
    ) -> Tuple[array[int], array[int]]:
        """Write one level of nodes; returns their first keys and page
        ids.  Every node is allocated before any is written."""
        nodes: List[Node] = []
        for start in range(0, len(keys), per_node):
            node = self._allocate_node(level)
            stop = start + per_node
            node.load_columns(keys[start:stop], values[start:stop])
            nodes.append(node)
        for i, node in enumerate(nodes):
            if i > 0:
                node.left_id = nodes[i - 1].page_id
            if i + 1 < len(nodes):
                node.right_id = nodes[i + 1].page_id
                node.high_key = nodes[i + 1].first_key()
            self._write(node)
        return (
            array("q", [node.keys[0] for node in nodes]),
            array("q", [node.page_id for node in nodes]),
        )

    def _build_upper_from(
        self,
        first_keys: array[int],
        page_ids: array[int],
        fill_factor: float = DEFAULT_FILL_FACTOR,
        level: int = 1,
    ) -> None:
        """Build inner levels above the nodes of ``level - 1`` (their
        first keys and page ids) and install the root.

        The base-node reorganization keeps its level-1 nodes and starts
        at level 2.
        """
        per_inner = max(2, int(self.inner_capacity * fill_factor))
        while len(page_ids) > 1:
            first_keys, page_ids = self._build_level(
                first_keys, page_ids, level=level, per_node=per_inner
            )
            level += 1
        self.root_id = page_ids[0]
        self.height = self._read(self.root_id).level + 1

    def _drop_all_nodes(self) -> None:
        """Free every node of the tree (used before a rebuild)."""
        for page_id in self._page_ids():
            self._free_node(page_id)

    def _page_ids(self, lowest: int = 0) -> List[int]:
        """Page ids of every node at or above level ``lowest``."""
        return [n.page_id for nodes in self.levels(lowest) for n in nodes]

    def _reset_to_empty_leaf(self) -> None:
        """Everything was deleted: the tree is a single empty leaf."""
        if self.first_leaf_id == NO_NODE:
            self.first_leaf_id = self._allocate_node(level=0).page_id
        self.root_id = self.first_leaf_id
        self.height = 1

    # ------------------------------------------------------------------
    # chain walkers and leaf-sweep support (bulk delete core)
    # ------------------------------------------------------------------
    def _chain(self, page_id: int) -> Iterator[Node]:
        """Nodes from ``page_id`` rightward along one level's sibling
        chain, one page access each (the chain walker).

        The walk follows the right link a node had when it was read, so
        the consumer may rewrite, split or free the node it was handed.
        """
        while page_id != NO_NODE:
            node = self._read(page_id)
            page_id = node.right_id
            yield node

    def leaves(self, start_key: Optional[int] = None) -> Iterator[Node]:
        """Leaves in key order: from the first leaf, or — after a
        root-to-leaf descent — from the leaf an operation on
        ``start_key`` would land on."""
        if start_key is None:
            start = self.first_leaf_id
        else:
            start = self.find_leaf(start_key).page_id
        for node in self._chain(start):
            if not node.is_leaf:
                raise IndexError_(f"page {node.page_id} is not a leaf")
            yield node

    def levels(self, lowest: int = 0) -> Iterator[List[Node]]:
        """Each level's nodes left to right, root level first, down to
        level ``lowest`` (the level walker).

        A level is entered through the first child of its parent
        level's first non-empty node, and nothing below ``lowest`` is
        read — so inner levels can be walked while leaf-level children
        are dangling (a sweep may have freed empty leaves before the
        rebuild fixes the parents).
        """
        nodes = list(self._chain(self.root_id))
        while nodes[0].level >= lowest:
            yield nodes
            head = next((n for n in nodes if n.keys), None)
            if nodes[0].level == lowest or head is None:
                return
            nodes = list(self._chain(head.values[0]))

    def read_leaf(self, page_id: int) -> Node:
        node = self._read(page_id)
        if not node.is_leaf:
            raise IndexError_(f"page {page_id} is not a leaf")
        return node

    def write_leaf_entries(self, page_id: int, entries: Sequence[Entry]) -> None:
        """Replace a leaf's entries in place (bulk-delete edit)."""
        with self.pool.pin(page_id) as pinned:
            before = Node.replace_entries(pinned.data, entries)
            pinned.mark_dirty()
        self._entry_count -= before - len(entries)

    def unlink_and_free_leaves(self, page_ids: Sequence[int]) -> None:
        """Free leaves emptied by a sweep (free-at-empty, deferred).

        Parents are *not* fixed here; callers must follow up with
        :meth:`rebuild_upper_levels`, mirroring the paper's
        layer-by-layer reorganization.
        """
        for page_id in page_ids:
            node = self._read(page_id)
            if node.keys:
                raise IndexError_(f"leaf {page_id} is not empty")
            self._unlink_from_chain(node)
            if page_id == self.first_leaf_id:
                self.first_leaf_id = node.right_id
            self._free_node(page_id)

    def rebuild_upper_levels(
        self, leaf_summaries: Optional[List[Entry]] = None
    ) -> None:
        """Rebuild all inner levels from the (current) leaf chain.

        ``leaf_summaries`` — ``(first_key, page_id)`` per live leaf —
        can be supplied by a sweep that already visited every leaf, so
        the chain does not have to be re-read.
        """
        old_inner = self._page_ids(lowest=1)
        if leaf_summaries is None:
            leaf_summaries = [
                (leaf.first_key(), leaf.page_id)
                for leaf in self.leaves()
                if leaf.keys
            ]
        for pid in old_inner:
            self._free_node(pid)
        if not leaf_summaries:
            self._reset_to_empty_leaf()
            return
        self._build_upper_from(*pair_columns(leaf_summaries))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return self._entry_count

    def node_count(self) -> int:
        return len(self._page_ids())

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    def drop(self) -> None:
        """Free every page; the tree is unusable afterwards."""
        self._drop_all_nodes()
        self.root_id = NO_NODE
        self.first_leaf_id = NO_NODE
        self.height = 0
        self._entry_count = 0
