"""Vertical bulk UPDATE — the paper's §1 application of bulk deletes.

"The techniques presented in this paper can also be applied to speed up
UPDATE statements; for instance, increasing the salary of above-average
employees involves carrying out a bulk delete (and bulk insert) on the
Emp.salary index."

An UPDATE that modifies column ``C`` of many records decomposes into:

1. find the victim RIDs (via an index on the WHERE column, read-only,
   or a predicate scan),
2. one RID-ordered sweep over the heap, rewriting each record in place
   (fixed layouts keep sizes identical, so RIDs never change and
   indexes on *unmodified* columns need no maintenance at all),
3. for every index on ``C``: a sort/merge **bulk delete** of the old
   ``(key, RID)`` entries followed by a sort/merge **bulk insert** of
   the new ones — two sequential leaf passes instead of two random
   root-to-leaf traversals per record.

A unique index on ``C`` is checked before step 2 writes anything
(paper §2.1: integrity checks run first): the new keys must be
distinct and must miss every entry the statement keeps, so a violating
UPDATE raises and leaves the table as it was.

``traditional_update`` is the horizontal baseline: per record, delete
the old index entry, rewrite, insert the new entry.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.btree.bulk_insert import BulkInsertResult, bulk_insert_sorted
from repro.catalog.catalog import IndexInfo, TableInfo
from repro.catalog.database import Database
from repro.core.bulk_ops import BdResult, bd_index_sort_merge
from repro.errors import PlanningError, SchemaError, UniqueViolationError
from repro.query.sort import ExternalSorter
from repro.storage.disk import DiskStats
from repro.storage.rid import RID

#: Computes the new value of the SET column from the full record tuple.
SetExpression = Callable[[Tuple[object, ...]], int]
#: Row filter for predicate-driven updates.
RowPredicate = Callable[[Tuple[object, ...]], bool]


@dataclass
class BulkUpdateResult:
    """What one bulk update did and what it cost (simulated)."""

    table_name: str
    set_column: str
    records_updated: int = 0
    index_deletes: List[BdResult] = field(default_factory=list)
    index_inserts: List[BulkInsertResult] = field(default_factory=list)
    elapsed_ms: float = 0.0
    io: Optional[DiskStats] = None

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_ms / 1000.0

    def summary(self) -> str:
        lines = [
            f"updated {self.records_updated} records of "
            f"{self.table_name}.{self.set_column} in "
            f"{self.elapsed_seconds:.2f}s (simulated)"
        ]
        for bd in self.index_deletes:
            lines.append(
                f"  {bd.structure}: bulk delete -{bd.deleted_count} "
                f"({bd.pages_visited} pages)"
            )
        for ins in self.index_inserts:
            lines.append(
                f"  {ins.structure}: bulk insert +{ins.inserted} "
                f"({ins.pages_visited} pages, {ins.pages_created} new)"
            )
        return "\n".join(lines)


def bulk_update(
    db: Database,
    table_name: str,
    set_column: str,
    compute: SetExpression,
    where: Optional[RowPredicate] = None,
    where_column: Optional[str] = None,
    where_keys: Optional[Sequence[int]] = None,
    flush_at_end: bool = True,
) -> BulkUpdateResult:
    """Vertically update ``set_column`` of every matching record.

    Victims come either from ``where`` (a row predicate, evaluated in a
    sequential scan) or from ``(where_column, where_keys)`` (an
    ``IN``-list resolved through an index when one exists).  ``compute``
    receives the current record tuple and returns the new integer value
    of ``set_column``.
    """
    table = db.table(table_name)
    attr = table.schema.attribute(set_column)
    if attr.data_type.value != "int":
        raise SchemaError(f"bulk_update targets INT columns, not {attr}")
    start_ms = db.clock.now_ms
    io_before = db.disk.stats.snapshot()
    result = BulkUpdateResult(table_name=table_name, set_column=set_column)

    victims = _find_victims(db, table, where, where_column, where_keys)
    victims.sort(key=lambda rid: rid.pack())

    set_idx = table.schema.column_index(set_column)
    affected = table.indexes_covering(set_column)
    old_pairs: List[Tuple[int, int]] = []
    new_pairs: List[Tuple[int, int]] = []
    updates: List[Tuple[RID, bytes]] = []
    unique = [index for index in affected if index.unique]
    #: ``(packed RID, new record)`` per rewrite, for the unique check.
    rewrites: List[Tuple[int, Tuple[object, ...]]] = []
    # One sequential pass computes the rewrites and the index deltas.
    for rid in victims:
        values = table.serializer.unpack(table.heap.read(rid))
        new_value = compute(values)
        if not isinstance(new_value, int) or isinstance(new_value, bool):
            raise SchemaError(
                f"SET expression must return an int, got {new_value!r}"
            )
        if new_value == values[set_idx]:
            continue
        packed = rid.pack()
        new_values = list(values)
        new_values[set_idx] = new_value
        old_pairs.append((values[set_idx], packed))
        new_pairs.append((new_value, packed))
        updates.append((rid, table.serializer.pack(new_values)))
        if unique:
            rewrites.append((packed, tuple(new_values)))
    for index in unique:
        _require_unique(db, table, index, rewrites)
    table.heap.update_many_sorted(updates)
    db.disk.charge_cpu_records(len(updates))
    result.records_updated = len(updates)

    # Index maintenance: one bulk delete + one bulk insert per index.
    # Compound indexes containing the SET column re-derive their packed
    # keys from the old/new record images.
    for index in affected:
        if not index.is_btree:
            # Hash indexes have no order to exploit: maintain them
            # record-at-a-time, as the paper's prototype did (§5).  All
            # deletes go first, so a key may move onto one another
            # rewritten row vacates (what the unique check allowed).
            for old_key, packed in old_pairs:
                index.hash_index.delete(old_key, packed)
            for new_key, packed in new_pairs:
                index.hash_index.insert(new_key, packed)
            db.disk.charge_cpu_records(len(old_pairs))
            continue
        if index.is_compound:
            idx_old, idx_new = [], []
            for (rid, new_payload), (old_key, packed) in zip(
                updates, old_pairs
            ):
                old_values = list(table.serializer.unpack(
                    table.heap.read(rid)
                ))
                # the heap already holds the new image; reconstruct old
                old_values[set_idx] = old_key
                idx_old.append(
                    (index.key_for(tuple(old_values), table.schema), packed)
                )
                idx_new.append(
                    (index.key_for(
                        table.serializer.unpack(new_payload), table.schema
                    ), packed)
                )
        else:
            idx_old, idx_new = old_pairs, new_pairs
        sorter = ExternalSorter(db.disk, db.memory_bytes, width=2)
        sorted_old = list(sorter.sort(idx_old))
        result.index_deletes.append(
            bd_index_sort_merge(index.tree, sorted_old, db.disk)
        )
        sorter = ExternalSorter(db.disk, db.memory_bytes, width=2)
        sorted_new = list(sorter.sort(idx_new))
        result.index_inserts.append(
            bulk_insert_sorted(index.tree, sorted_new, db.disk)
        )
    if flush_at_end:
        db.flush()
    result.elapsed_ms = db.clock.now_ms - start_ms
    result.io = db.disk.stats.delta_since(io_before)
    return result


def _require_unique(
    db: Database,
    table: TableInfo,
    index: IndexInfo,
    rewrites: Sequence[Tuple[int, Tuple[object, ...]]],
) -> None:
    """Raise :class:`UniqueViolationError` if the rewrites would leave
    two equal keys in the unique ``index`` — before anything is written.

    The new keys must be distinct, and none may equal the key of an
    entry whose RID the statement does not rewrite.  A B-tree is checked
    by one pass over the leaves the sorted new keys fall into, charged
    like the bulk insert that follows; a hash index key by key.
    """
    moving = {packed for packed, _ in rewrites}
    keys = sorted(index.key_for(new, table.schema) for _, new in rewrites)
    for key, following in zip(keys, keys[1:]):
        if key == following:
            raise UniqueViolationError(
                f"duplicate key {key} in unique index {index.name}"
            )
    if not keys:
        return
    if not index.is_btree:
        for key in keys:
            if set(index.hash_index.search(key)) - moving:  # type: ignore[union-attr]
                raise UniqueViolationError(
                    f"duplicate key {key} in unique index {index.name}"
                )
        db.disk.charge_cpu_records(len(keys))
        return
    i = 0
    for leaf in index.tree.leaves(keys[0]):  # type: ignore[union-attr]
        if not leaf.keys:
            continue
        # Every key lives in one leaf of a unique tree: the new keys up
        # to this leaf's last key can meet an entry here or nowhere.
        stop = bisect_right(keys, leaf.keys[-1], i)
        db.disk.charge_cpu_records(stop - i + leaf.entry_count)
        meeting = set(keys[i:stop])
        for key, value in zip(leaf.keys, leaf.values):
            if key in meeting and value not in moving:
                raise UniqueViolationError(
                    f"duplicate key {key} in unique index {index.name}"
                )
        i = stop
        if i == len(keys):
            return


def _find_victims(
    db: Database,
    table: TableInfo,
    where: Optional[RowPredicate],
    where_column: Optional[str],
    where_keys: Optional[Sequence[int]],
) -> List[RID]:
    """Resolve the victim RIDs without modifying anything."""
    if (where is None) == (where_column is None):
        raise PlanningError(
            "pass exactly one of `where` or `where_column`+`where_keys`"
        )
    if where is not None:
        return [
            RID(page_id, slot)
            for page_id, records in table.heap.scan_pages()
            for slot, payload in records
            if where(table.serializer.unpack(payload))
        ]
    if where_keys is None:
        raise PlanningError("where_column requires where_keys")
    indexes = table.indexes_on(where_column)
    if indexes:
        tree = indexes[0].tree
        rids: List[RID] = []
        for key in sorted(set(where_keys)):
            rids.extend(RID.unpack(v) for v in tree.search(key))
        db.disk.charge_cpu_records(len(where_keys))
        return rids
    wanted = set(where_keys)
    column_idx = table.schema.column_index(where_column)
    return [
        RID(page_id, slot)
        for page_id, records in table.heap.scan_pages()
        for slot, payload in records
        if table.serializer.unpack(payload)[column_idx] in wanted
    ]


def traditional_update(
    db: Database,
    table_name: str,
    set_column: str,
    compute: SetExpression,
    where: Optional[RowPredicate] = None,
    where_column: Optional[str] = None,
    where_keys: Optional[Sequence[int]] = None,
    flush_at_end: bool = True,
) -> BulkUpdateResult:
    """Horizontal baseline: per record, maintain indexes immediately.

    Every updated record pays a root-to-leaf delete and a root-to-leaf
    insert in each index on the SET column — the behaviour the paper's
    bulk-delete/bulk-insert pairing replaces.
    """
    table = db.table(table_name)
    start_ms = db.clock.now_ms
    io_before = db.disk.stats.snapshot()
    result = BulkUpdateResult(table_name=table_name, set_column=set_column)
    victims = _find_victims(db, table, where, where_column, where_keys)
    set_idx = table.schema.column_index(set_column)
    affected = table.indexes_covering(set_column)
    for rid in victims:
        values = table.serializer.unpack(table.heap.read(rid))
        new_value = compute(values)
        if new_value == values[set_idx]:
            continue
        packed = rid.pack()
        new_values = list(values)
        new_values[set_idx] = new_value
        for index in affected:
            index.structure_delete(
                index.key_for(values, table.schema), packed
            )
            index.structure_insert(
                index.key_for(tuple(new_values), table.schema), packed
            )
        table.heap.update(rid, table.serializer.pack(new_values))
        result.records_updated += 1
    if flush_at_end:
        db.flush()
    result.elapsed_ms = db.clock.now_ms - start_ms
    result.io = db.disk.stats.delta_since(io_before)
    return result
