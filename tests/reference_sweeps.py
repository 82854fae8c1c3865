"""Reference leaf sweeps: the five hand-written ``bd`` loops that
:func:`repro.core.bulk_ops._sweep` replaced, kept verbatim as the oracle.

``bd_index_sort_merge``, ``bd_index_hash_probe``,
``bd_index_partitioned``, ``collect_index_matches`` and
``sweep_with_base_node_reorg`` below are the parent commit's function
bodies, each with its own chain walk, visit count, CPU charge, WAL hook
and summaries/empties protocol.  ``tests/test_sweep_equivalence.py``
runs every method twice — kernel and reference — and compares results,
disk statistics, clock and durable page images.

``install()`` swaps them in for the engine's call sites (pass
``monkeypatch.setattr`` inside a test), so a whole benchmark workload
can be run on the old loops: see the recipe in
``.claude/skills/verify/SKILL.md``.  The call sites pass the arguments
the primitives gained with the kernel; the adaptors at the bottom map
them onto what the parent's ``Stage`` did with them.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.btree.node import MAX_KEY, MIN_KEY, NO_NODE, Node, pair_columns
from repro.btree.tree import DEFAULT_FILL_FACTOR, BLinkTree
from repro.core.bulk_ops import BdResult
from repro.errors import IndexError_
from repro.query.hashtable import BYTES_PER_SET_ENTRY, BoundedHashSet
from repro.query.partition import range_partition
from repro.storage.disk import SimulatedDisk

Entry = Tuple[int, int]  # (key, packed rid)


# ----------------------------------------------------------------------
# verbatim from the parent's core/bulk_ops.py
# ----------------------------------------------------------------------
def _finish_sweep(
    tree: BLinkTree,
    summaries: List[Entry],
    empties: List[int],
    result: BdResult,
    compact: bool,
) -> None:
    """Free emptied leaves and restore the inner levels after a sweep."""
    if empties:
        tree.unlink_and_free_leaves(empties)
        result.pages_freed = len(empties)
    if compact:
        from repro.core.reorg import compact_leaf_level

        compact_leaf_level(tree)
    else:
        tree.rebuild_upper_levels(summaries if summaries else None)


def bd_index_sort_merge(
    tree: BLinkTree,
    sorted_pairs: Sequence[Entry],
    disk: SimulatedDisk,
    match_rid: bool = True,
    compact: bool = False,
    on_removed: Optional[Callable[[List[Entry]], None]] = None,
) -> BdResult:
    """Delete ``sorted_pairs`` from ``tree`` with one leaf-level sweep.

    ``sorted_pairs`` must be sorted by ``(key, rid)``.  When
    ``match_rid`` is false an entry matches on key alone (used when the
    delete list carries keys only — e.g. table D's ``A`` values feeding
    the first ``bd`` of the plan — and one key may match several
    duplicate entries).

    The sweep merges two sorted streams — the delete list and the leaf
    chain — so every leaf page is read (and written back only if
    modified) exactly once, sequentially.  Empty leaves are freed and
    the inner levels are rebuilt afterwards, per the paper's
    layer-by-layer reorganization.
    """
    result = BdResult(structure=tree.name)
    if not sorted_pairs:
        return result
    i = 0
    n = len(sorted_pairs)
    carry: List[Entry] = []
    summaries: List[Entry] = []
    empties: List[int] = []
    page_id = tree.first_leaf_id
    while page_id != NO_NODE:
        node = tree.read_leaf(page_id)
        result.pages_visited += 1
        next_id = node.right_id
        entries = node.entries
        kept = entries
        if entries and (
            carry or (i < n and sorted_pairs[i][0] <= entries[-1][0])
        ):
            kept, removed, i, carry = _merge_out(
                entries, sorted_pairs, i, n, match_rid, carry
            )
            disk.charge_cpu_records(len(entries))
            if removed:
                if on_removed is not None:
                    # WAL protocol: the redo record must be durable
                    # before the page can be modified (and evicted).
                    on_removed(removed)
                result.deleted.extend(removed)
                tree.write_leaf_entries(page_id, kept)
        if kept:
            summaries.append((kept[0][0], page_id))
        else:
            empties.append(page_id)
        page_id = next_id
    _finish_sweep(tree, summaries, empties, result, compact)
    return result


def _merge_out(
    entries: Sequence[Entry],
    sorted_pairs: Sequence[Entry],
    i: int,
    n: int,
    match_rid: bool,
    carry: List[Entry],
) -> Tuple[List[Entry], List[Entry], int, List[Entry]]:
    """Merge one leaf against the (key-sorted) delete list.

    Leaves are key-ordered along the chain but duplicate keys may span
    leaves with locally ordered values, so the merge consumes every
    delete pair with a key up to this leaf's last key and *carries*
    unmatched pairs sharing exactly that boundary key into the next
    leaf.  Returns ``(kept, removed, new_cursor, new_carry)``.
    """
    last_key = entries[-1][0]
    candidates: List[Entry] = list(carry)
    while i < n and sorted_pairs[i][0] <= last_key:
        candidates.append(sorted_pairs[i])
        i += 1
    kept: List[Entry] = []
    removed: List[Entry] = []
    if match_rid:
        cand_set = set(candidates)
        for entry in entries:
            if entry in cand_set:
                cand_set.discard(entry)
                removed.append(entry)
            else:
                kept.append(entry)
        new_carry = [p for p in cand_set if p[0] == last_key]
    else:
        cand_keys = {key for key, _ in candidates}
        for entry in entries:
            if entry[0] in cand_keys:
                removed.append(entry)
            else:
                kept.append(entry)
        new_carry = [p for p in candidates if p[0] == last_key]
    return kept, removed, i, new_carry


def bd_index_hash_probe(
    tree: BLinkTree,
    rid_set: BoundedHashSet,
    disk: SimulatedDisk,
    compact: bool = False,
    undeletable: Optional[Set[Entry]] = None,
) -> BdResult:
    """Sweep every leaf, dropping entries whose RID is in ``rid_set``.

    This is the classic-hash-join flavour of ``bd`` (Figure 4): the
    hash table is built once from the RID list and the index is scanned
    "in place" at the leaf level — no per-record traversals and no sort
    of the delete list by this index's key.

    ``undeletable`` marks entries inserted by concurrent transactions
    under direct propagation (paper §3.1.2): a concurrently inserted
    entry may re-use a RID from the delete set, and must survive the
    sweep even though its RID probes positive.
    """
    protected = undeletable or set()
    result = BdResult(structure=tree.name)
    summaries: List[Entry] = []
    empties: List[int] = []
    page_id = tree.first_leaf_id
    while page_id != NO_NODE:
        node = tree.read_leaf(page_id)
        result.pages_visited += 1
        next_id = node.right_id
        entries = node.entries
        disk.charge_cpu_records(len(entries))
        kept = [e for e in entries if e[1] not in rid_set or e in protected]
        if len(kept) != len(entries):
            result.deleted.extend(
                e for e in entries if e[1] in rid_set and e not in protected
            )
            tree.write_leaf_entries(page_id, kept)
        if kept:
            summaries.append((kept[0][0], page_id))
        else:
            empties.append(page_id)
        page_id = next_id
    _finish_sweep(tree, summaries, empties, result, compact)
    return result


def bd_index_partitioned(
    tree: BLinkTree,
    pairs: Iterable[Entry],
    memory_bytes: int,
    disk: SimulatedDisk,
    compact: bool = False,
) -> BdResult:
    """Range-partitioned hash ``bd`` (Figure 5).

    ``pairs`` is the ``(key, RID)`` delete list for this index, in any
    order.  It is range-partitioned by key so each partition's RID hash
    set fits in ``memory_bytes``; each partition then probes only the
    contiguous leaf range its key range maps to — the index "can be
    range partitioned without any cost" because it is clustered by its
    own key.  Inner levels are rebuilt once at the end.
    """
    max_per_partition = max(1, memory_bytes // BYTES_PER_SET_ENTRY)
    partitions = range_partition(
        disk,
        pairs,
        key_index=0,
        width=2,
        max_tuples_per_partition=max_per_partition,
    )
    result = BdResult(structure=tree.name)
    result.partitions = len(partitions)
    summaries: List[Entry] = []
    empties: List[int] = []
    seen_first: Optional[int] = None
    for partition in partitions:
        rid_set = BoundedHashSet(memory_bytes)
        lo, hi = MAX_KEY, MIN_KEY
        for key, rid in partition:
            rid_set.add(rid)
            lo = min(lo, key)
            hi = max(hi, key)
        start = tree.find_leaf(lo)
        result.pages_visited += tree.height - 1  # locating descent
        page_id = start.page_id
        while page_id != NO_NODE:
            node = tree.read_leaf(page_id)
            result.pages_visited += 1
            next_id = node.right_id
            if node.keys and node.first_key() > hi:
                break
            entries = node.entries
            disk.charge_cpu_records(len(entries))
            kept = [e for e in entries if e[1] not in rid_set]
            if len(kept) != len(entries):
                result.deleted.extend(e for e in entries if e[1] in rid_set)
                tree.write_leaf_entries(page_id, kept)
            page_id = next_id
        partition.free()
    # A final chain walk classifies leaves; these pages are hot in the
    # buffer pool, so this costs no extra physical I/O in the common case.
    page_id = tree.first_leaf_id
    while page_id != NO_NODE:
        node = tree.read_leaf(page_id)
        next_id = node.right_id
        if node.keys:
            summaries.append((node.first_key(), page_id))
        else:
            empties.append(page_id)
        page_id = next_id
    _finish_sweep(tree, summaries, empties, result, compact)
    return result


def collect_index_matches(
    tree: BLinkTree,
    sorted_keys: Sequence[int],
    disk: SimulatedDisk,
) -> BdResult:
    """Read-only sort/merge lookup: which of ``sorted_keys`` are indexed?

    The same sequential leaf merge as :func:`bd_index_sort_merge`, but
    nothing is modified — this is how integrity constraints are checked
    "in such a vertical way as early as possible and before deleting
    records from the table and the indices, so that no work needs to be
    undone if an integrity constraint fails" (paper §2.2).  The result's
    ``deleted`` field holds the *matching* ``(key, RID)`` entries.
    """
    result = BdResult(structure=f"{tree.name} (probe)")
    if not sorted_keys:
        return result
    keys = sorted(set(sorted_keys))
    i, n = 0, len(keys)
    page_id = tree.first_leaf_id
    while page_id != NO_NODE and i < n:
        node = tree.read_leaf(page_id)
        result.pages_visited += 1
        next_id = node.right_id
        if node.keys and keys[i] <= node.keys[-1]:
            last_key = node.keys[-1]
            disk.charge_cpu_records(node.entry_count)
            wanted = set()
            j = i
            while j < n and keys[j] <= last_key:
                wanted.add(keys[j])
                j += 1
            result.deleted.extend(
                e for e in node.entries if e[0] in wanted
            )
            # Keys equal to the leaf's last key may continue rightward.
            i = j
            while i > 0 and keys[i - 1] == last_key:
                i -= 1
                break
        page_id = next_id
    return result


# ----------------------------------------------------------------------
# verbatim from the parent's core/reorg.py
# ----------------------------------------------------------------------
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
        # No inner level: fall back to the plain sweep (the reference
        # one above — the parent imported it from core/bulk_ops here).
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
    first_keys, page_ids = pair_columns(base_summaries)
    while len(page_ids) > 1:
        first_keys, page_ids = tree._build_level(
            first_keys, page_ids, level=level, per_node=per_inner
        )
        level += 1
    tree.root_id = page_ids[0]
    tree.height = tree._read(tree.root_id).level + 1


# ----------------------------------------------------------------------
# swapping the reference in for the engine's call sites
# ----------------------------------------------------------------------
def _sort_merge_as_staged(
    tree, sorted_pairs, disk, match_rid=True, compact=False,
    on_removed=None, undeletable=None,
):
    """The parent's ``Stage`` kept protected entries out of the
    sort/merge by filtering their pairs off the delete list."""
    if undeletable:
        sorted_pairs = [p for p in sorted_pairs if p not in undeletable]
    return bd_index_sort_merge(
        tree, sorted_pairs, disk, match_rid, compact, on_removed
    )


def _partitioned_as_staged(
    tree, pairs, memory_bytes, disk, compact=False, undeletable=None
):
    if undeletable:
        pairs = [p for p in pairs if p not in undeletable]
    return bd_index_partitioned(tree, pairs, memory_bytes, disk, compact)


def _reorg_as_staged(
    tree, sorted_pairs, disk, match_rid=True, on_removed=None,
    undeletable=None,
):
    """The parent's reorg sweep had no WAL hook; ``on_removed`` is
    dropped, as it was when ``Stage`` returned before passing it."""
    if undeletable:
        sorted_pairs = [p for p in sorted_pairs if p not in undeletable]
    return sweep_with_base_node_reorg(tree, sorted_pairs, disk, match_rid)


def install(setattr_: Callable[[object, str, object], None] = setattr) -> None:
    """Point every engine call site at the reference loops."""
    from repro.core import bulk_update, integrity, stages

    setattr_(stages, "bd_index_sort_merge", _sort_merge_as_staged)
    setattr_(stages, "bd_index_hash_probe", bd_index_hash_probe)
    setattr_(stages, "bd_index_partitioned", _partitioned_as_staged)
    setattr_(stages, "sweep_with_base_node_reorg", _reorg_as_staged)
    setattr_(bulk_update, "bd_index_sort_merge", bd_index_sort_merge)
    setattr_(integrity, "collect_index_matches", collect_index_matches)
