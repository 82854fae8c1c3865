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

from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.btree.node import NO_NODE, Node
from repro.btree.tree import DEFAULT_FILL_FACTOR, BLinkTree
from repro.core.bulk_ops import (
    BdResult,
    _MergeSelector,
    _sweep,
    bd_index_sort_merge,
)
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
    for leaf in tree.leaves():
        page_ids.append(leaf.page_id)
        entries.extend(leaf.entries)
    if not page_ids:
        # The sweep emptied and freed every leaf: nothing to repack.
        tree.rebuild_upper_levels()
        return 0
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
    on_removed: Optional[Callable[[List[Entry]], None]] = None,
    undeletable: Optional[Set[Entry]] = None,
) -> BdResult:
    """Sort/merge bulk delete with on-the-fly inner-node maintenance.

    Equivalent in effect to
    :func:`repro.core.bulk_ops.bd_index_sort_merge`, but instead of
    rebuilding all inner levels at the end, each level-1 *base node* is
    updated right after the leaves below it have been processed — the
    adaptation of [26] sketched in Figure 6 of the paper.  Levels above
    the base nodes are rebuilt once at the end (they are tiny).
    """
    if tree.height < 2:
        # No inner level: fall back to the plain sweep.
        return bd_index_sort_merge(
            tree, sorted_pairs, disk, match_rid,
            on_removed=on_removed, undeletable=undeletable,
        )
    result = BdResult(structure=tree.name)
    if not sorted_pairs:
        return result
    merge = _MergeSelector(sorted_pairs, match_rid)
    base_summaries: List[Entry] = []
    for base in tree._chain(_leftmost_at_level(tree, level=1)):
        new_children, freed = _sweep(
            tree,
            map(tree.read_leaf, base.values),
            merge,
            disk,
            result,
            undeletable,
            on_removed,
            free_in_flight=True,
        )
        result.pages_freed += len(freed)
        # Update the base node in place before moving right.
        if new_children:
            base.entries = new_children
            tree._write(base)
            base_summaries.append((new_children[0][0], base.page_id))
        else:
            tree._unlink_from_chain(base)
            tree._free_node(base.page_id)
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
    for page_id in tree._page_ids(lowest=2):
        tree._free_node(page_id)
    if not base_summaries:
        tree._reset_to_empty_leaf()
    elif len(base_summaries) == 1:
        tree.root_id = base_summaries[0][1]
        tree.height = 2
    else:
        tree._build_upper_from(base_summaries, level=2)
