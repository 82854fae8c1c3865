"""Physical bulk-delete (``bd``) primitives.

These are the building blocks the plans of Figures 3-5 compose.  Each
primitive deletes a *set* of entries from one storage structure by
adapting the delete list to that structure's physical layout:

* :func:`bd_index_sort_merge` — merge a key-sorted delete list with the
  leaf chain of a B-link tree (the sort/merge ``bd`` of Figure 3),
* :func:`bd_index_hash_probe` — sweep the leaf chain probing each
  entry's RID against an in-memory hash set (Figure 4); this is the
  "primary join predicate = RID" option,
* :func:`bd_index_partitioned` — range-partition the delete list by key
  and hash-probe one contiguous leaf range per partition (Figure 5),
* :func:`bd_heap_sorted_rids` — sweep the base table in RID order,
* :func:`bd_heap_hash_probe` — scan the base table probing a RID set.

Every primitive returns the deleted entries, because "the output of the
``bd`` operator can serve as the input of another ``bd``" — that piping
is what makes the vertical approach work.  All primitives operate *in
place* on the original leaf/data pages; join methods that would copy or
repartition the structure itself are not applicable to deletion (paper,
Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.btree.node import MAX_KEY, MIN_KEY, NO_NODE
from repro.btree.tree import BLinkTree
from repro.catalog.catalog import TableInfo
from repro.query.hashtable import BYTES_PER_SET_ENTRY, BoundedHashSet
from repro.query.partition import range_partition
from repro.storage.disk import SimulatedDisk
from repro.storage.rid import RID

Entry = Tuple[int, int]  # (key, packed rid)
Row = Tuple[RID, Tuple[object, ...]]


@dataclass
class BdResult:
    """Outcome of one ``bd`` application to one structure."""

    structure: str
    deleted: List[Entry] = field(default_factory=list)
    pages_visited: int = 0
    pages_freed: int = 0
    partitions: int = 0

    @property
    def deleted_count(self) -> int:
        return len(self.deleted)


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


# ----------------------------------------------------------------------
# index-side primitives
# ----------------------------------------------------------------------
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
# base-table primitives
# ----------------------------------------------------------------------
def bd_heap_sorted_rids(
    table: TableInfo,
    sorted_rids: Sequence[RID],
    disk: SimulatedDisk,
    compact: bool = False,
    on_page_deletes: Optional[
        Callable[[List[Tuple[RID, bytes]]], None]
    ] = None,
) -> Tuple[List[Row], BdResult]:
    """Delete RID-sorted records from the base table (one sweep).

    Returns the deleted records' decoded values together with their
    RIDs — the projections feeding the remaining per-index ``bd``
    operators come from here.  ``on_page_deletes`` is the heap's WAL
    hook, the counterpart of ``on_removed`` on the index sweep: it sees
    each page's ``(RID, payload)`` victims before the page changes.
    """
    result = BdResult(structure=table.name)
    raw = table.heap.delete_many_sorted(
        sorted_rids, compact_pages=compact, on_page_deletes=on_page_deletes
    )
    disk.charge_cpu_records(len(raw))
    rows: List[Row] = [
        (rid, table.serializer.unpack(payload)) for rid, payload in raw
    ]
    result.deleted = [(rid.pack(), rid.pack()) for rid, _ in rows]
    result.pages_visited = len({rid.page_id for rid in sorted_rids})
    return rows, result


def bd_heap_hash_probe(
    table: TableInfo,
    rid_set: BoundedHashSet,
    disk: SimulatedDisk,
) -> Tuple[List[Row], BdResult]:
    """Scan all pages of the table, deleting records whose RID probes.

    Figure 4's plan does exactly this for table R: "all pages of table R
    are scanned and the RID of each record is probed with the hash
    table in order to see whether the record should be deleted".
    """
    result = BdResult(structure=table.name)
    rows: List[Row] = []
    to_delete: List[RID] = []
    for page_id, records in table.heap.scan_pages():
        result.pages_visited += 1
        disk.charge_cpu_records(len(records))
        for slot, payload in records:
            rid = RID(page_id, slot)
            if rid.pack() in rid_set:
                rows.append((rid, table.serializer.unpack(payload)))
                to_delete.append(rid)
    table.heap.delete_many_sorted(to_delete)
    result.deleted = [(rid.pack(), rid.pack()) for rid in to_delete]
    return rows, result
