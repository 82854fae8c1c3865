"""Structural validation and node-reclamation policies.

``validate_tree`` is the invariant checker the test suite (including the
hypothesis property tests) runs after every mutation sequence.  The
reclamation policies implement the papers cited by the reproduction
target: free-at-empty (Johnson & Shasha [9], the paper's default) and
merge-at-half (classic textbook behaviour, kept for ablations — [8]
concluded leaf merging after deletions is usually not worth it).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.btree.node import MIN_KEY, NO_NODE, Node
from repro.btree.tree import BLinkTree
from repro.errors import IndexError_


class ReclaimPolicy(enum.Enum):
    """When to reclaim under-full B-tree nodes."""

    FREE_AT_EMPTY = "free-at-empty"
    MERGE_AT_HALF = "merge-at-half"


def validate_tree(tree: BLinkTree) -> None:
    """Check every structural invariant; raises ``IndexError_`` on failure.

    Checked invariants:

    * every level's sibling chain is consistent (left/right pointers
      mirror each other) and keys are non-decreasing along it
      (``high_key`` is an advisory hint, not validated — inserts through
      stale-low separators can outdate it),
    * entries within a node are sorted by ``(key, value)``; across
      nodes keys are non-decreasing (duplicate keys may span nodes, and
      their values are only locally ordered),
    * inner separators bound their subtrees: child ``i`` (for ``i >= 1``)
      only holds keys in ``[sep_i, next-greater-sep)``; child 0 only
      keys below the first separator greater than its own,
    * no node exceeds its capacity,
    * the recorded entry count matches the leaf contents,
    * ``first_leaf_id`` is the leftmost leaf.
    """
    if tree.root_id == NO_NODE:
        raise IndexError_("tree has been dropped")
    total = _validate_subtree(tree, tree.root_id, MIN_KEY, None)
    if total != tree.entry_count:
        raise IndexError_(
            f"entry_count {tree.entry_count} but leaves hold {total}"
        )
    _validate_chains(tree)
    leftmost = tree.root_id
    node = tree._read(leftmost)
    while not node.is_leaf:
        if not node.keys:
            raise IndexError_(f"inner node {node.page_id} is empty")
        node = tree._read(node.values[0])
    if node.page_id != tree.first_leaf_id:
        raise IndexError_(
            f"first_leaf_id {tree.first_leaf_id} but leftmost leaf "
            f"is {node.page_id}"
        )
    root = tree._read(tree.root_id)
    if root.level + 1 != tree.height:
        raise IndexError_(
            f"height {tree.height} but root level is {root.level}"
        )


def _validate_subtree(
    tree: BLinkTree, page_id: int, low: int, high: Optional[int]
) -> int:
    node = tree._read(page_id)
    if node.entry_count > tree.capacity_for(node):
        raise IndexError_(f"node {page_id} over capacity")
    entries = node.entries
    for i in range(1, node.entry_count):
        if node.is_leaf:
            if entries[i - 1] > entries[i]:
                raise IndexError_(f"node {page_id} entries not sorted")
        elif node.keys[i - 1] > node.keys[i]:
            raise IndexError_(f"node {page_id} separators not sorted")
    for key in node.keys:
        if key < low:
            raise IndexError_(
                f"node {page_id} key {key} below lower bound {low}"
            )
        if high is not None and key > high:
            raise IndexError_(
                f"node {page_id} key {key} above upper bound {high}"
            )
    if node.is_leaf:
        return node.entry_count
    total = 0
    for i, (sep, child) in enumerate(entries):
        # Child 0 may legitimately hold keys below its (stale) separator:
        # routing sends any key below the next separator to it.
        child_low = low if i == 0 else max(low, sep)
        # The (inclusive) upper bound is the next separator: a split
        # may leave equal keys on both sides of it.
        if i + 1 < node.entry_count:
            later_sep = node.keys[i + 1]
            child_high = later_sep if high is None else min(later_sep, high)
        else:
            child_high = high
        total += _validate_subtree(tree, child, child_low, child_high)
    return total


def _validate_chains(tree: BLinkTree) -> None:
    for nodes in tree.levels():
        for prev, cursor in zip(nodes, nodes[1:]):
            if cursor.left_id != prev.page_id:
                raise IndexError_(f"node {cursor.page_id} left link broken")
            if prev.keys and cursor.keys and prev.keys[-1] > cursor.keys[0]:
                raise IndexError_(
                    f"chain order violated between {prev.page_id} "
                    f"and {cursor.page_id}"
                )
        head = nodes[0]
        if not head.is_leaf and not head.keys:
            raise IndexError_(f"inner node {head.page_id} is empty")


def merge_underfull_leaves(tree: BLinkTree) -> int:
    """Merge adjacent under-half-full leaves (merge-at-half ablation).

    Walks the leaf chain once; whenever two neighbouring leaves fit into
    one node, the right one is drained into the left and freed.  Inner
    levels are rebuilt afterwards.  Returns the number of leaves freed.
    """
    merged = 0
    survivors: List[Node] = []
    for right in tree.leaves():
        node = survivors[-1] if survivors else None
        if (
            node is None
            or node.entry_count >= tree.leaf_capacity // 2
            or node.entry_count + right.entry_count > tree.leaf_capacity
        ):
            survivors.append(right)
            continue
        node.entries = (*node.entries, *right.entries)
        node.right_id = right.right_id
        node.high_key = right.high_key
        tree._write(node)
        if right.right_id != NO_NODE:
            far = tree._read(right.right_id)
            far.left_id = node.page_id
            tree._write(far)
        tree._free_node(right.page_id)
        merged += 1
    summaries = [(n.first_key(), n.page_id) for n in survivors if n.keys]
    tree.rebuild_upper_levels(summaries or None)
    return merged
