"""Set-oriented insertion into a B-link tree.

The dual of the bulk-delete sweep, needed by the paper's UPDATE
application ("increasing the salary of above-average employees involves
carrying out a bulk delete (and bulk insert) on the Emp.salary index",
§1) and closely related to the bulk-loading literature the paper cites
([22], [24], [25]).

``bulk_insert_sorted`` merges a key-sorted entry list into the leaf
chain in one left-to-right pass: each leaf is visited at most once,
receives every new entry belonging to its key range, and is split into
as many nodes as needed.  Inner levels are rebuilt layer by layer
afterwards, exactly like the delete sweep — so a bulk update pays two
sequential passes per index instead of two random traversals per
record.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.btree.node import MAX_KEY, NO_NODE, Node
from repro.btree.tree import BLinkTree
from repro.errors import UniqueViolationError
from repro.storage.disk import SimulatedDisk

Entry = Tuple[int, int]


@dataclass
class BulkInsertResult:
    """Outcome of one bulk insert into one tree."""

    structure: str
    inserted: int = 0
    pages_visited: int = 0
    pages_created: int = 0


def bulk_insert_sorted(
    tree: BLinkTree,
    sorted_entries: Sequence[Entry],
    disk: SimulatedDisk,
    fill_factor: float = 0.9,
) -> BulkInsertResult:
    """Merge ``sorted_entries`` (by ``(key, value)``) into ``tree``.

    One sequential pass over the leaf chain; overfull leaves are split
    in place into chains of fresh nodes.  For a unique tree a duplicate
    key raises before anything is modified on the page holding it.
    """
    result = BulkInsertResult(structure=tree.name)
    n = len(sorted_entries)
    if n == 0:
        return result
    for i in range(1, n):
        if sorted_entries[i - 1] > sorted_entries[i]:
            raise ValueError("bulk_insert_sorted input must be sorted")
    per_leaf = max(2, int(tree.leaf_capacity * fill_factor))
    i = 0
    summaries: List[Entry] = []
    for node in tree.leaves():
        result.pages_visited += 1
        # Upper bound of keys this leaf should absorb: the next leaf's
        # first key (strictly below it), or everything if last.
        if node.right_id == NO_NODE:
            take_until = n
        else:
            right = tree.read_leaf(node.right_id)
            bound = right.first_key() if right.keys else MAX_KEY
            take_until = i
            while take_until < n and sorted_entries[take_until][0] < bound:
                take_until += 1
        incoming = list(sorted_entries[i:take_until])
        i = take_until
        if not incoming:
            if node.keys:
                summaries.append((node.first_key(), node.page_id))
            else:
                # A leftover empty leaf that receives nothing: unlink it
                # now, since the rebuilt inner levels will not know it.
                tree.unlink_and_free_leaves([node.page_id])
            continue
        disk.charge_cpu_records(len(incoming) + node.entry_count)
        merged = _merge_entries(tree, node.entries, incoming)
        result.inserted += len(incoming)
        created = _write_leaf_run(
            tree, node, merged, per_leaf, summaries
        )
        result.pages_created += created
    tree._entry_count += result.inserted
    tree.rebuild_upper_levels(summaries if summaries else None)
    return result


def _merge_entries(
    tree: BLinkTree, existing: Sequence[Entry], incoming: List[Entry]
) -> List[Entry]:
    """Merge two sorted entry lists, enforcing uniqueness if required."""
    if tree.unique:
        keys = {k for k, _ in existing}
        for k, _ in incoming:
            if k in keys:
                raise UniqueViolationError(
                    f"duplicate key {k} in unique index {tree.name}"
                )
            keys.add(k)
    out: List[Entry] = []
    a, b = 0, 0
    while a < len(existing) and b < len(incoming):
        if existing[a] <= incoming[b]:
            out.append(existing[a])
            a += 1
        else:
            out.append(incoming[b])
            b += 1
    out.extend(existing[a:])
    out.extend(incoming[b:])
    return out


def _write_leaf_run(
    tree: BLinkTree,
    node: Node,
    merged: List[Entry],
    per_leaf: int,
    summaries: List[Entry],
) -> int:
    """Write ``merged`` back into ``node`` plus fresh right siblings.

    Keeps the original page first (RIDs pointing *at the tree* do not
    exist, so only chain links must stay consistent).  Returns the
    number of new pages created.
    """
    if len(merged) <= tree.leaf_capacity:
        chunks = [merged]
    else:
        chunks = [
            merged[start : start + per_leaf]
            for start in range(0, len(merged), per_leaf)
        ]
    old_right = node.right_id
    nodes = [node]
    for _ in range(len(chunks) - 1):
        nodes.append(tree._allocate_node(level=0))
    for idx, (leaf, chunk) in enumerate(zip(nodes, chunks)):
        leaf.level = 0
        leaf.entries = chunk
        leaf.left_id = nodes[idx - 1].page_id if idx > 0 else node.left_id
        if idx + 1 < len(nodes):
            leaf.right_id = nodes[idx + 1].page_id
            leaf.high_key = chunks[idx + 1][0][0]
        else:
            leaf.right_id = old_right
            leaf.high_key = None
        tree._write(leaf)
        summaries.append((chunk[0][0], leaf.page_id))
    if old_right != NO_NODE and len(nodes) > 1:
        right = tree._read(old_right)
        right.left_id = nodes[-1].page_id
        tree._write(right)
    return len(nodes) - 1
