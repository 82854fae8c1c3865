"""B+-tree reorganization during/after bulk deletion (paper §2.3).

Because every bulk-delete plan visits the leaf level "from the beginning
to the end", leaves can be *compacted*, *compressed* and *merged with
neighbour pages* at very little extra cost.  Two strategies from the
paper are implemented:

* :func:`compact_leaf_level` — shift all surviving entries "to the
  left" into the smallest possible number of leaf pages, freeing the
  rest, then rebuild the inner levels layer by layer.  This produces a
  contiguous, fully packed leaf level.
* :func:`sweep_with_base_node_reorg` — the on-the-fly variant adapted
  from Zou & Salzberg [26]: one level-1 *base node* at a time, sweep the
  leaves below it, then update that inner node in place before moving to
  its right sibling.  Only the levels above the base nodes need a final
  fix-up, so the memory footprint is one sub-tree at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.btree.node import NO_NODE, Node
from repro.btree.tree import DEFAULT_FILL_FACTOR, BLinkTree
from repro.core.bulk_ops import BdResult, _merge_out
from repro.errors import IndexError_
from repro.storage.disk import SimulatedDisk

Entry = Tuple[int, int]


def compact_leaf_level(
    tree: BLinkTree, fill_factor: float = DEFAULT_FILL_FACTOR
) -> int:
    """Repack the leaf level densely; returns the number of leaves freed.

    Surviving entries are redistributed left-to-right over the existing
    leaf pages (reusing them in chain order keeps the level physically
    contiguous); surplus leaves are freed and the inner levels are
    rebuilt.  Afterwards every leaf except possibly the last is filled
    to ``fill_factor``.
    """
    page_ids: List[int] = []
    entries: List[Entry] = []
    page_id = tree.first_leaf_id
    while page_id != NO_NODE:
        node = tree.read_leaf(page_id)
        page_ids.append(page_id)
        entries.extend(node.entries)
        page_id = node.right_id
    per_leaf = max(2, int(tree.leaf_capacity * fill_factor))
    needed = max(1, -(-len(entries) // per_leaf))  # ceil, at least one leaf
    keep = page_ids[:needed]
    surplus = page_ids[needed:]
    chunks = [entries[i * per_leaf : (i + 1) * per_leaf] for i in range(needed)]
    summaries: List[Entry] = []
    for idx, (page_id, chunk) in enumerate(zip(keep, chunks)):
        node = Node(page_id, level=0, entries=chunk)
        node.left_id = keep[idx - 1] if idx > 0 else NO_NODE
        node.right_id = keep[idx + 1] if idx + 1 < needed else NO_NODE
        if idx + 1 < needed and chunks[idx + 1]:
            node.high_key = chunks[idx + 1][0][0]
        tree._write(node)
        if chunk:
            summaries.append((chunk[0][0], page_id))
    for page_id in surplus:
        tree._free_node(page_id)
    tree.first_leaf_id = keep[0]
    # Entry bookkeeping: write_leaf_entries was bypassed, counts unchanged.
    tree.rebuild_upper_levels(summaries if summaries else None)
    return len(surplus)


def sweep_with_base_node_reorg(
    tree: BLinkTree,
    sorted_pairs: Sequence[Entry],
    disk: SimulatedDisk,
    match_rid: bool = True,
) -> BdResult:
    """Sort/merge bulk delete with on-the-fly inner-node maintenance.

    Equivalent in effect to
    :func:`repro.core.bulk_ops.bd_index_sort_merge`, but instead of
    rebuilding all inner levels at the end, each level-1 *base node* is
    updated right after the leaves below it have been processed — the
    adaptation of [26] sketched in Figure 6 of the paper.  Levels above
    the base nodes are rebuilt once at the end (they are tiny).
    """
    result = BdResult(structure=tree.name)
    if tree.height < 2:
        # No inner level: fall back to the plain sweep.
        from repro.core.bulk_ops import bd_index_sort_merge

        return bd_index_sort_merge(tree, sorted_pairs, disk, match_rid)
    if not sorted_pairs:
        return result
    base_id = _leftmost_at_level(tree, level=1)
    i, n = 0, len(sorted_pairs)
    carry: List[Entry] = []
    base_summaries: List[Entry] = []
    while base_id != NO_NODE:
        base = tree._read(base_id)
        next_base = base.right_id
        new_children: List[Entry] = []
        for leaf_id in base.values:
            entries = tree.read_leaf(leaf_id).entries
            result.pages_visited += 1
            kept = entries
            if entries and (
                carry or (i < n and sorted_pairs[i][0] <= entries[-1][0])
            ):
                kept, removed, i, carry = _merge_out(
                    entries, sorted_pairs, i, n, match_rid, carry
                )
                disk.charge_cpu_records(len(entries))
                if removed:
                    result.deleted.extend(removed)
                    tree.write_leaf_entries(leaf_id, kept)
            if kept:
                new_children.append((kept[0][0], leaf_id))
            else:
                tree.unlink_and_free_leaves([leaf_id])
                result.pages_freed += 1
        # Update the base node in place before moving right.
        if new_children:
            base.entries = new_children
            tree._write(base)
            base_summaries.append((new_children[0][0], base_id))
        else:
            tree._unlink_from_chain(base)
            tree._free_node(base_id)
        base_id = next_base
    _rebuild_above_level_one(tree, base_summaries)
    return result


def _leftmost_at_level(tree: BLinkTree, level: int) -> int:
    node = tree._read(tree.root_id)
    while node.level > level:
        if not node.keys:
            raise IndexError_(f"inner node {node.page_id} is empty")
        node = tree._read(node.values[0])
    if node.level != level:
        raise IndexError_(f"tree has no level {level}")
    return node.page_id


def _rebuild_above_level_one(
    tree: BLinkTree, base_summaries: List[Entry]
) -> None:
    """Replace levels >= 2 with fresh nodes over the surviving bases."""
    # Free the old levels above 1.
    old: List[int] = []
    node = tree._read(tree.root_id)
    while node.level >= 2:
        cursor: Optional[Node] = node
        first_child: Optional[int] = None
        while cursor is not None:
            old.append(cursor.page_id)
            if first_child is None and cursor.keys:
                first_child = cursor.values[0]
            cursor = (
                tree._read(cursor.right_id)
                if cursor.right_id != NO_NODE
                else None
            )
        if node.level == 2 or first_child is None:
            break
        node = tree._read(first_child)
    for page_id in old:
        tree._free_node(page_id)
    if not base_summaries:
        # Every leaf vanished: reset to a single empty leaf.
        if tree.first_leaf_id == NO_NODE:
            leaf = tree._allocate_node(level=0)
            tree.first_leaf_id = leaf.page_id
        tree.root_id = tree.first_leaf_id
        tree.height = 1
        return
    if len(base_summaries) == 1:
        tree.root_id = base_summaries[0][1]
        tree.height = 2
        return
    per_inner = max(2, int(tree.inner_capacity * DEFAULT_FILL_FACTOR))
    level = 2
    current = base_summaries
    while len(current) > 1:
        current = tree._build_level(current, level=level, per_node=per_inner)
        level += 1
    tree.root_id = current[0][1]
    tree.height = tree._read(tree.root_id).level + 1
