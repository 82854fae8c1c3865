"""Reference build path: the free-space map, the record-at-a-time heap
append and the tuple-building CREATE INDEX that the page- and
column-granular build replaced, kept as the oracle.

``ReferenceFreeSpaceMap`` sorts the whole map on every first-fit
lookup; ``ReferenceHeap.append`` pins the last page once per record;
``load_table`` appends row by row; ``create_index`` /
``create_hash_index`` decode every column of every record, derive the
key by name and (bulk mode) sort ``(key, RID)`` tuples into a
pair-at-a-time bottom-up load.  ``tests/test_build_equivalence.py``
drives a database built this way and one built by the engine through
the same random statement sequences and compares durable page bytes,
RIDs, disk statistics, clock, free-space answers and index pages.

``use_reference_heap(db, table_name)`` switches one table's heap to the
reference append and free-space map (the engine's ``insert`` falls
back to ``self.append``, so inserts follow the old path too).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.btree.node import Node
from repro.btree.tree import DEFAULT_FILL_FACTOR, BLinkTree
from repro.catalog.catalog import IndexInfo
from repro.catalog.database import Database
from repro.catalog.schema import DataType, TableSchema
from repro.errors import (
    CatalogError,
    IndexError_,
    SchemaError,
    UniqueViolationError,
)
from repro.storage.heap import HeapFile
from repro.storage.page_formats import SlottedPage
from repro.storage.rid import RID

Entry = Tuple[int, int]


# ----------------------------------------------------------------------
# the sorting free-space map (storage/freespace.py before)
# ----------------------------------------------------------------------
class ReferenceFreeSpaceMap:
    """Tracks approximate free bytes for the pages of one heap file."""

    def __init__(self) -> None:
        self._free: Dict[int, int] = {}

    def record(self, page_id: int, free_bytes: int) -> None:
        self._free[page_id] = max(0, free_bytes)

    def forget(self, page_id: int) -> None:
        self._free.pop(page_id, None)

    def free_bytes(self, page_id: int) -> int:
        return self._free.get(page_id, 0)

    def find_page_with(self, needed_bytes: int) -> Optional[int]:
        for page_id in sorted(self._free):
            if self._free[page_id] >= needed_bytes:
                return page_id
        return None

    def pages(self) -> Iterator[int]:
        return iter(sorted(self._free))

    def __len__(self) -> int:
        return len(self._free)


# ----------------------------------------------------------------------
# the record-at-a-time HeapFile.append (``_append_to_new_or_last``)
# ----------------------------------------------------------------------
class ReferenceHeap(HeapFile):
    """A heap file whose appends pin the last page once per record."""

    def append(self, payload: bytes) -> RID:
        if self.page_ids:
            last = self.page_ids[-1]
            with self.pool.pin(last) as pinned:
                page = SlottedPage(pinned.data)
                if page.can_fit(len(payload)):
                    slot = page.insert(payload)
                    pinned.mark_dirty()
                    self.fsm.record(last, page.free_space())
                    self._record_count += 1
                    return RID(last, slot)
        with self.pool.pin_new(self.file_id) as pinned:
            page = SlottedPage.format_empty(pinned.data)
            slot = page.insert(payload)
            pinned.mark_dirty()
            page_id = pinned.page_id
            self.fsm.record(page_id, page.free_space())
        self.page_ids.append(page_id)
        self._page_set.add(page_id)
        self._record_count += 1
        return RID(page_id, slot)

    def extend(self, payloads: Iterable[bytes]) -> Optional[RID]:
        raise AssertionError("the reference heap appends row by row")


def use_reference_heap(db: Database, table_name: str) -> None:
    """Run one (still empty) table's heap on the reference code."""
    heap = db.table(table_name).heap
    assert not heap.page_ids, "switch the heap before loading it"
    heap.__class__ = ReferenceHeap
    heap.fsm = ReferenceFreeSpaceMap()  # type: ignore[assignment]


# ----------------------------------------------------------------------
# the row-by-row Database.load_table (heap tables)
# ----------------------------------------------------------------------
def load_table(
    db: Database, table_name: str, rows: Iterable[Sequence[object]]
) -> int:
    table = db.catalog.table(table_name)
    if table.indexes:
        raise CatalogError(
            "load_table must run before indexes exist; use insert()"
        )
    count = 0
    for values in rows:
        table.heap.append(table.serializer.pack(values))
        count += 1
    return count


# ----------------------------------------------------------------------
# the by-name IndexInfo.key_for and the tuple-building CREATE INDEX
# ----------------------------------------------------------------------
def key_for(
    index: IndexInfo, values: Tuple[object, ...], schema: TableSchema
) -> int:
    if index.codec is not None:
        parts = [values[schema.column_index(col)] for col in index.columns]
        return index.codec.pack(parts)  # type: ignore[arg-type]
    attr = schema.attribute(index.column)
    if attr.data_type is not DataType.INT:
        raise SchemaError(
            f"column {index.column} is not INT; only integer columns "
            "are indexable"
        )
    return values[schema.column_index(index.column)]  # type: ignore[return-value]


def create_index(
    db: Database,
    table_name: str,
    column: str,
    unique: bool = False,
    max_leaf_entries: Optional[int] = None,
    max_inner_entries: Optional[int] = None,
    build_method: str = "bulk",
) -> IndexInfo:
    table = db.catalog.table(table_name)
    index_name = f"I_{table_name}_{column}"
    tree = BLinkTree(
        db.pool,
        name=index_name,
        unique=unique,
        max_leaf_entries=max_leaf_entries,
        max_inner_entries=max_inner_entries,
    )
    index = IndexInfo(
        name=index_name, table_name=table_name, column=column,
        tree=tree, unique=unique,
    )
    if build_method == "insert":
        for rid, payload in table.heap.scan():
            values = table.serializer.unpack(payload)
            db.disk.charge_cpu_records(1, factor=2.0)
            tree.insert(key_for(index, values, table.schema), rid.pack())
    else:
        entries: List[Entry] = []
        for rid, payload in table.heap.scan():
            values = table.serializer.unpack(payload)
            entries.append((key_for(index, values, table.schema), rid.pack()))
        entries.sort()
        db.disk.charge_cpu_records(len(entries), factor=4.0)  # sort
        bulk_load(tree, entries)
    table.add_index(index)
    return index


def create_hash_index(
    db: Database, table_name: str, column: str, bucket_count: int
) -> IndexInfo:
    from repro.hashindex import HashIndex

    table = db.catalog.table(table_name)
    index_name = f"H_{table_name}_{column}"
    hash_index = HashIndex(db.pool, name=index_name, bucket_count=bucket_count)
    index = IndexInfo(
        name=index_name, table_name=table_name, column=column,
        kind="hash", hash_index=hash_index,
    )
    for rid, payload in table.heap.scan():
        values = table.serializer.unpack(payload)
        db.disk.charge_cpu_records(1)
        hash_index.insert(key_for(index, values, table.schema), rid.pack())
    table.add_index(index)
    return index


# ----------------------------------------------------------------------
# the pair-list BLinkTree.bulk_load (one level at a time)
# ----------------------------------------------------------------------
def bulk_load(
    tree: BLinkTree,
    entries: Sequence[Entry],
    fill_factor: float = DEFAULT_FILL_FACTOR,
) -> None:
    if not 0.1 <= fill_factor <= 1.0:
        raise ValueError("fill factor must be in [0.1, 1.0]")
    for i in range(1, len(entries)):
        if entries[i - 1] > entries[i]:
            raise IndexError_("bulk_load input must be sorted")
        if tree.unique and entries[i - 1][0] == entries[i][0]:
            raise UniqueViolationError(
                f"duplicate key {entries[i][0]} in unique index {tree.name}"
            )
    tree._drop_all_nodes()
    if not entries:
        root = tree._allocate_node(level=0)
        tree.root_id = root.page_id
        tree.first_leaf_id = root.page_id
        tree.height = 1
        tree._entry_count = 0
        return
    per_leaf = max(2, int(tree.leaf_capacity * fill_factor))
    summaries = _build_level(tree, list(entries), level=0, per_node=per_leaf)
    tree.first_leaf_id = summaries[0][1]
    tree._entry_count = len(entries)
    per_inner = max(2, int(tree.inner_capacity * fill_factor))
    current = summaries
    level = 1
    while len(current) > 1:
        current = _build_level(tree, current, level=level, per_node=per_inner)
        level += 1
    tree.root_id = current[0][1]
    tree.height = tree._read(tree.root_id).level + 1


def _build_level(
    tree: BLinkTree, entries: List[Entry], level: int, per_node: int
) -> List[Entry]:
    nodes: List[Node] = []
    for start in range(0, len(entries), per_node):
        node = tree._allocate_node(level)
        node.entries = entries[start : start + per_node]
        nodes.append(node)
    for i, node in enumerate(nodes):
        if i > 0:
            node.left_id = nodes[i - 1].page_id
        if i + 1 < len(nodes):
            node.right_id = nodes[i + 1].page_id
            node.high_key = nodes[i + 1].first_key()
        tree._write(node)
    return [(node.first_key(), node.page_id) for node in nodes]

