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

The index-side primitives are one operator: :func:`_sweep` visits a
sequence of leaves and owns what they share (visit count, CPU charge,
protected entries, redo hook before the write, the in-place write);
each primitive supplies a *selector* — how a leaf's victims are
recognised — and a *leaf source* — which leaves are visited.

Every primitive returns the deleted entries, because "the output of the
``bd`` operator can serve as the input of another ``bd``" — that piping
is what makes the vertical approach work.  All primitives operate *in
place* on the original leaf/data pages; join methods that would copy or
repartition the structure itself are not applicable to deletion (paper,
Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.btree.node import MAX_KEY, MIN_KEY, Node
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


#: A selector splits one (non-empty) leaf's entries into ``(kept,
#: removed)``, both in leaf order, or returns ``None`` when the leaf
#: cannot hold a victim and need not be examined.
Selector = Callable[[Node], Optional[Tuple[Sequence[Entry], List[Entry]]]]


# ----------------------------------------------------------------------
# the leaf-sweep kernel: what every index-side ``bd`` shares
# ----------------------------------------------------------------------
def _sweep(
    tree: BLinkTree,
    leaves: Iterable[Node],
    select: Selector,
    disk: SimulatedDisk,
    result: BdResult,
    protected: Optional[Set[Entry]] = None,
    on_removed: Optional[Callable[[List[Entry]], None]] = None,
    write: bool = True,
    free_in_flight: bool = False,
) -> Tuple[List[Entry], List[int]]:
    """Visit ``leaves`` once and in order, removing what ``select`` picks.

    The methods differ only in *how* a leaf's victims are recognised
    (``select``: :class:`_MergeSelector` or :func:`_rid_selector`) and
    in *which* leaves are visited (``leaves``); everything else is here:
    each leaf counts as one visited page, an examined leaf is charged
    CPU per entry, ``protected`` entries — installed by concurrent
    transactions under direct propagation (paper §3.1.2) — survive even
    though they were selected, ``on_removed`` sees a leaf's victims
    before the page changes, and the leaf is rewritten in place only if
    it lost something (never with ``write`` off — the read-only probe).

    Returns the ``(first_key, page_id)`` summaries of the surviving
    leaves and the ids of the emptied ones for :func:`_finish_sweep`;
    ``free_in_flight`` frees an emptied leaf before the next one is read
    (its chain neighbours are still hot), which is what the base-node
    reorganization does.
    """
    summaries: List[Entry] = []
    empties: List[int] = []
    for node in leaves:
        result.pages_visited += 1
        page_id = node.page_id
        first_key = split = None
        if node.keys:
            first_key, split = node.keys[0], select(node)
        if split is not None:
            disk.charge_cpu_records(node.entry_count)
            kept, removed = split
            if protected and removed:
                spared = [e for e in removed if e in protected]
                if spared:
                    removed = [e for e in removed if e not in protected]
                    kept = sorted([*kept, *spared])
            if removed:
                if on_removed is not None:
                    # WAL protocol: the redo record must be durable
                    # before the page can be modified (and evicted).
                    on_removed(removed)
                result.deleted.extend(removed)
                if write:
                    tree.write_leaf_entries(page_id, kept)
                    first_key = kept[0][0] if kept else None
        if first_key is not None:
            summaries.append((first_key, page_id))
        else:
            empties.append(page_id)
            if free_in_flight:
                tree.unlink_and_free_leaves([page_id])
    return summaries, empties


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


class _MergeSelector:
    """Sort/merge recognition: the key-sorted delete list is consumed
    in step with the leaves, so a leaf whose last key lies below the
    list's cursor is skipped unexamined.

    Leaves are key-ordered along the chain but duplicate keys may span
    leaves with locally ordered values, so the merge consumes every
    delete pair with a key up to a leaf's last key and *carries*
    unmatched pairs sharing exactly that boundary key into the next
    leaf.
    """

    def __init__(self, sorted_pairs: Sequence[Entry], match_rid: bool) -> None:
        self.pairs = sorted_pairs
        self.match_rid = match_rid
        self.i = 0
        self.carry: List[Entry] = []

    def exhausted(self) -> bool:
        """No leaf further right can match: list and carry are spent."""
        return self.i >= len(self.pairs) and not self.carry

    def __call__(
        self, node: Node
    ) -> Optional[Tuple[Sequence[Entry], List[Entry]]]:
        pairs, i, n = self.pairs, self.i, len(self.pairs)
        last_key = node.keys[-1]
        if not (self.carry or (i < n and pairs[i][0] <= last_key)):
            return None
        candidates = self.carry
        while i < n and pairs[i][0] <= last_key:
            candidates.append(pairs[i])
            i += 1
        self.i = i
        kept: List[Entry] = []
        removed: List[Entry] = []
        if self.match_rid:
            cand_set = set(candidates)
            for entry in node.entries:
                if entry in cand_set:
                    cand_set.discard(entry)
                    removed.append(entry)
                else:
                    kept.append(entry)
            self.carry = [p for p in cand_set if p[0] == last_key]
        else:
            cand_keys = {key for key, _ in candidates}
            for entry in node.entries:
                if entry[0] in cand_keys:
                    removed.append(entry)
                else:
                    kept.append(entry)
            self.carry = [p for p in candidates if p[0] == last_key]
        return kept, removed


def _rid_selector(rid_set: BoundedHashSet) -> Selector:
    """Hash recognition: an entry is a victim iff its RID probes."""

    def select(node: Node) -> Tuple[Sequence[Entry], List[Entry]]:
        entries = node.entries
        removed = [e for e in entries if e[1] in rid_set]
        if not removed:
            return entries, removed
        return [e for e in entries if e[1] not in rid_set], removed

    return select


# ----------------------------------------------------------------------
# index-side primitives: a selector and a leaf source each
# ----------------------------------------------------------------------
def bd_index_sort_merge(
    tree: BLinkTree,
    sorted_pairs: Sequence[Entry],
    disk: SimulatedDisk,
    match_rid: bool = True,
    compact: bool = False,
    on_removed: Optional[Callable[[List[Entry]], None]] = None,
    undeletable: Optional[Set[Entry]] = None,
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
    summaries, empties = _sweep(
        tree,
        tree.leaves(),
        _MergeSelector(sorted_pairs, match_rid),
        disk,
        result,
        undeletable,
        on_removed,
    )
    _finish_sweep(tree, summaries, empties, result, compact)
    return result


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
    result = BdResult(structure=tree.name)
    summaries, empties = _sweep(
        tree, tree.leaves(), _rid_selector(rid_set), disk, result, undeletable
    )
    _finish_sweep(tree, summaries, empties, result, compact)
    return result


def _key_range_leaves(
    tree: BLinkTree, lo: int, hi: int, result: BdResult
) -> Iterator[Node]:
    """The contiguous leaf range that can hold keys in ``[lo, hi]``.

    Pages the walk reads without handing them on are counted here:
    the inner pages of the locating descent, and the first leaf that
    starts beyond ``hi`` (reading it is how the range is known to end).
    """
    result.pages_visited += tree.height - 1
    for node in tree.leaves(start_key=lo):
        if node.keys and node.first_key() > hi:
            result.pages_visited += 1
            return
        yield node


def bd_index_partitioned(
    tree: BLinkTree,
    pairs: Iterable[Entry],
    memory_bytes: int,
    disk: SimulatedDisk,
    compact: bool = False,
    undeletable: Optional[Set[Entry]] = None,
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
    for partition in partitions:
        rid_set = BoundedHashSet(memory_bytes)
        lo, hi = MAX_KEY, MIN_KEY
        for key, rid in partition:
            rid_set.add(rid)
            lo = min(lo, key)
            hi = max(hi, key)
        _sweep(
            tree,
            _key_range_leaves(tree, lo, hi, result),
            _rid_selector(rid_set),
            disk,
            result,
            undeletable,
        )
        partition.free()
    # A final chain walk classifies leaves; these pages are hot in the
    # buffer pool, so this costs no extra physical I/O in the common case.
    summaries: List[Entry] = []
    empties: List[int] = []
    for node in tree.leaves():
        if node.keys:
            summaries.append((node.first_key(), node.page_id))
        else:
            empties.append(node.page_id)
    _finish_sweep(tree, summaries, empties, result, compact)
    return result


def _until_exhausted(
    leaves: Iterator[Node], merge: _MergeSelector
) -> Iterator[Node]:
    """``leaves`` up to the one that exhausts the delete list — no leaf
    is read once the list and the boundary-key carry are spent."""
    for node in leaves:
        yield node
        if merge.exhausted():
            return


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
    merge = _MergeSelector(
        [(key, 0) for key in sorted(set(sorted_keys))], match_rid=False
    )
    _sweep(
        tree,
        _until_exhausted(tree.leaves(), merge),
        merge,
        disk,
        result,
        write=False,
    )
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
