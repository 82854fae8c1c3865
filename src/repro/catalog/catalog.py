"""Catalog objects: tables, indexes, and their runtime state."""

from __future__ import annotations

import copy
import enum
import sys
from array import array
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lsm.tree import LsmTree
    from repro.shard.map import ShardMap

from repro.btree.tree import BLinkTree
from repro.catalog.composite import CompositeKeyCodec
from repro.catalog.schema import DataType, TableSchema
from repro.errors import CatalogError, SchemaError
from repro.storage.heap import HeapFile
from repro.storage.rid import RID
from repro.storage.serializer import RecordSerializer

#: Engine name of the paper's slotted-heap + B-link-tree layout.
ENGINE_HEAP = "heap"
#: Engine name of the delete-aware LSM tree (``repro.lsm``).
ENGINE_LSM = "lsm"
#: Every engine ``Database.create_table(engine=...)`` accepts.  The
#: set is closed: an engine is a storage contract the planner,
#: observer and static-analysis contracts all know about.
ENGINE_NAMES: Tuple[str, ...] = (ENGINE_HEAP, ENGINE_LSM)

#: Records are little-endian; ``array`` holds host-order integers.
_BIG_ENDIAN = sys.byteorder == "big"

#: Packed records (``(anything, bytes)`` pairs) -> one index's keys.
KeyProjection = Callable[[Sequence[Tuple[object, bytes]]], "array[int]"]


class IndexState(enum.Enum):
    """Availability of an index (Section 3 of the paper).

    A bulk delete takes indexes *off-line*; concurrent updaters must
    then either log their changes to a side-file or install them
    directly under latches.
    """

    ONLINE = "online"
    OFFLINE = "offline"


@dataclass
class IndexInfo:
    """One secondary (or clustered) index.

    ``column`` names the (first) indexed column; compound indexes set
    ``columns``/``codec`` and derive their keys by packing the column
    values into one order-preserving integer — after which "compound
    indices ... can be treated just like indices on a single attribute"
    (paper §2.2): every bd operator works on them unchanged.
    """

    name: str
    table_name: str
    column: str
    tree: Optional[BLinkTree] = None
    unique: bool = False
    clustered: bool = False
    state: IndexState = IndexState.ONLINE
    columns: Tuple[str, ...] = ()
    codec: Optional[CompositeKeyCodec] = None
    #: 'btree' (participates in vertical bulk deletes) or 'hash'
    #: (maintained record-at-a-time, as the paper's prototype did for
    #: non-B-tree indexes).
    kind: str = "btree"
    hash_index: Optional[object] = None  # repro.hashindex.HashIndex
    #: ``(schema, key positions)`` once :meth:`key_positions` ran.
    _resolved: Optional[Tuple[TableSchema, Tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.columns:
            self.columns = (self.column,)
        if (self.codec is not None) != (len(self.columns) > 1):
            raise CatalogError(
                "compound indexes need a codec; single-column ones none"
            )
        if self.kind not in ("btree", "hash"):
            raise CatalogError(f"unknown index kind {self.kind!r}")
        if (self.kind == "btree") != (self.tree is not None):
            raise CatalogError("btree indexes need a tree; hash ones none")
        if (self.kind == "hash") != (self.hash_index is not None):
            raise CatalogError("hash indexes need a hash_index")
        if self.kind == "hash" and self.clustered:
            raise CatalogError("hash indexes cannot be clustered")

    def __deepcopy__(self, memo: dict) -> "IndexInfo":
        # Names, flags, the state enum, the frozen codec and the
        # resolved (schema, positions) pair are shared.
        clone = memo[id(self)] = object.__new__(type(self))
        clone.__dict__.update(
            self.__dict__,
            tree=copy.deepcopy(self.tree, memo),
            hash_index=copy.deepcopy(self.hash_index, memo),
        )
        return clone

    @property
    def is_compound(self) -> bool:
        return self.codec is not None

    @property
    def is_btree(self) -> bool:
        return self.kind == "btree"

    @property
    def entry_count(self) -> int:
        structure = self.tree if self.is_btree else self.hash_index
        return structure.entry_count  # type: ignore[union-attr]

    def structure_insert(self, key: int, packed_rid: int) -> None:
        if self.is_btree:
            self.tree.insert(key, packed_rid)  # type: ignore[union-attr]
        else:
            self.hash_index.insert(key, packed_rid)  # type: ignore[union-attr]

    def structure_delete(self, key: int, packed_rid: int) -> bool:
        if self.is_btree:
            return self.tree.delete(key, packed_rid)  # type: ignore[union-attr]
        return self.hash_index.delete(key, packed_rid)  # type: ignore[union-attr]

    def structure_contains(self, key: int) -> bool:
        if self.is_btree:
            return self.tree.contains(key)  # type: ignore[union-attr]
        return self.hash_index.contains(key)  # type: ignore[union-attr]

    def key_for(self, values: Tuple[object, ...], schema: TableSchema) -> int:
        """Index key of one record tuple (packed for compound indexes)."""
        positions = self.key_positions(schema)
        if self.codec is not None:
            return self.codec.pack([values[p] for p in positions])  # type: ignore[misc]
        return values[positions[0]]  # type: ignore[return-value]

    def key_positions(self, schema: TableSchema) -> Tuple[int, ...]:
        """Positions of the key column(s) in ``schema``'s record tuple,
        resolved on the first call and remembered per schema."""
        resolved = self._resolved
        if resolved is not None and resolved[0] is schema:
            return resolved[1]
        if self.codec is None:
            attr = schema.attribute(self.column)
            if attr.data_type is not DataType.INT:
                raise SchemaError(
                    f"column {self.column} is not INT; only integer "
                    "columns are indexable"
                )
        positions = tuple(schema.column_index(col) for col in self.columns)
        self._resolved = (schema, positions)
        return positions

    def covers_column(self, column: str) -> bool:
        return column in self.columns

    @property
    def is_online(self) -> bool:
        return self.state is IndexState.ONLINE

    def set_offline(self) -> None:
        self.state = IndexState.OFFLINE

    def set_online(self) -> None:
        self.state = IndexState.ONLINE


class TableInfo:
    """A table: schema, heap file, serializer, and its indexes.

    A *range-sharded* table is a logical entry whose ``shard_map``
    partitions its key space and whose ``shards`` list holds one
    physical ``TableInfo`` per range (each with its own heap and
    indexes, named ``{name}::s{i}``).  The logical entry's own heap
    stays empty — rows live only in the shards — and DML against it
    routes through the map (see :meth:`Database.create_sharded_table
    <repro.catalog.database.Database.create_sharded_table>`).
    """

    def __init__(self, schema: TableSchema, heap: HeapFile) -> None:
        self.schema = schema
        self.heap = heap
        self.serializer = RecordSerializer(schema)
        self.indexes: Dict[str, IndexInfo] = {}
        #: Range partitioning of this table, or ``None`` (unsharded).
        self.shard_map: Optional["ShardMap"] = None
        #: Physical per-range tables, index-aligned with the map.
        self.shards: List["TableInfo"] = []
        #: Per-shard access counters (keys routed), the raw feed of
        #: hot-range detection.  Plain dict arithmetic — the planner
        #: reads it I/O-free; executors bump it via
        #: :meth:`note_shard_access`.
        self.shard_accesses: Dict[int, int] = {}
        #: The LSM tree holding this table's rows, or ``None`` for the
        #: heap + B-link layout.  An LSM table's heap stays empty, like
        #: a sharded table's logical entry.
        self.lsm: Optional["LsmTree"] = None
        #: The INT column LSM rows are keyed by.
        self.lsm_key_column: Optional[str] = None

    def __deepcopy__(self, memo: dict) -> "TableInfo":
        # The schema, serializer and shard map are immutable: shared.
        clone = memo[id(self)] = object.__new__(type(self))
        clone.__dict__.update(
            self.__dict__,
            heap=copy.deepcopy(self.heap, memo),
            indexes={
                name: copy.deepcopy(index, memo)
                for name, index in self.indexes.items()
            },
            shards=[copy.deepcopy(shard, memo) for shard in self.shards],
            shard_accesses=dict(self.shard_accesses),
            lsm=copy.deepcopy(self.lsm, memo),
        )
        return clone

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def record_count(self) -> int:
        if self.lsm is not None:
            return self.lsm.approx_records
        if self.is_sharded:
            return sum(shard.heap.record_count for shard in self.shards)
        return self.heap.record_count

    @property
    def is_sharded(self) -> bool:
        return self.shard_map is not None

    @property
    def engine(self) -> str:
        """The layout's name, as WAL payloads and EXPLAIN spell it."""
        return ENGINE_HEAP if self.lsm is None else ENGINE_LSM

    def shard(self, shard_id: int) -> "TableInfo":
        try:
            return self.shards[shard_id]
        except IndexError:
            raise CatalogError(
                f"table {self.name} has no shard {shard_id}"
            )

    def note_shard_access(self, shard_id: int, keys: int = 1) -> None:
        """Record that ``keys`` accesses routed to one shard."""
        self.shard_accesses[shard_id] = (
            self.shard_accesses.get(shard_id, 0) + keys
        )

    def add_index(self, index: IndexInfo) -> None:
        if index.name in self.indexes:
            raise CatalogError(f"index {index.name} already exists")
        if index.clustered and self.clustered_index() is not None:
            raise CatalogError(
                f"table {self.name} already has a clustered index"
            )
        self.indexes[index.name] = index

    def drop_index(self, name: str) -> IndexInfo:
        try:
            return self.indexes.pop(name)
        except KeyError:
            raise CatalogError(f"no index {name} on table {self.name}")

    def index(self, name: str) -> IndexInfo:
        try:
            return self.indexes[name]
        except KeyError:
            raise CatalogError(f"no index {name} on table {self.name}")

    def indexes_on(self, column: str) -> List[IndexInfo]:
        """Single-column B-tree indexes usable to drive ``column`` lookups."""
        return [
            ix
            for ix in self.indexes.values()
            if ix.column == column and not ix.is_compound and ix.is_btree
        ]

    def btree_indexes(self) -> List[IndexInfo]:
        return [ix for ix in self.indexes.values() if ix.is_btree]

    def hash_indexes(self) -> List[IndexInfo]:
        return [ix for ix in self.indexes.values() if not ix.is_btree]

    def indexes_covering(self, column: str) -> List[IndexInfo]:
        """Every index (compound included) that contains ``column``."""
        return [
            ix for ix in self.indexes.values() if ix.covers_column(column)
        ]

    def clustered_index(self) -> Optional[IndexInfo]:
        for ix in self.indexes.values():
            if ix.clustered:
                return ix
        return None

    def index_entries(
        self, index: IndexInfo
    ) -> Iterator[Tuple[array[int], array[int]]]:
        """The heap → ``(key, RID)`` projection every index build reads.

        Walks :meth:`HeapFile.scan_pages` and yields, per heap page in
        scan order, two ``array('q')`` columns: the page's keys for
        ``index`` and the packed RIDs they index.  Only the key
        column(s) are decoded, at byte offsets resolved once; a caller
        that touches other pages between two pages of the walk (an
        entry-at-a-time build) sees the heap pinned exactly as a plain
        scan would pin it.
        """
        keys_of: Optional[KeyProjection] = None
        for page_id, rows in self.heap.scan_pages():
            if not rows:
                continue
            if keys_of is None:
                keys_of = self.key_projection(index)
            base = page_id << 16  # RID.pack
            rids = array("q", [base | slot for slot, _ in rows])
            yield keys_of(rows), rids

    def key_projection(self, index: IndexInfo) -> "KeyProjection":
        """A function from packed records to ``index``'s keys.

        It takes ``(anything, record bytes)`` pairs (a page's slots, a
        sweep's RIDs) and returns one ``array('q')`` of keys, decoding
        only the key column(s) at byte offsets resolved here, once.
        """
        fields = [
            self.serializer.field(position)
            for position in index.key_positions(self.schema)
        ]
        codec = index.codec

        def keys_of(rows: Sequence[Tuple[object, bytes]]) -> array[int]:
            columns = [
                _column_values(rows, offset, length)
                for offset, length in fields
            ]
            if codec is None:
                return columns[0]  # type: ignore[return-value]
            return array("q", map(codec.pack, zip(*columns)))

        return keys_of

    def index_columns(
        self, index: IndexInfo
    ) -> Tuple[array[int], array[int]]:
        """:meth:`index_entries` gathered and sorted by ``(key, RID)``:
        the input of a bottom-up build.

        A heap appends pages in allocation order and page ids only
        grow, so the scan yields RIDs ascending and a stable sort on the
        key alone leaves ``(key, RID)`` order (the bulk load checks it).
        """
        keys, rids = array("q"), array("q")
        for page_keys, page_rids in self.index_entries(index):
            keys += page_keys
            rids += page_rids
        key_list = keys.tolist()
        order = sorted(range(len(key_list)), key=key_list.__getitem__)
        return (
            array("q", map(key_list.__getitem__, order)),
            array("q", map(rids.__getitem__, order)),
        )

    def key_of(self, values: Tuple[object, ...], column: str) -> int:
        """Extract an (integer) index key from a record tuple."""
        attr = self.schema.attribute(column)
        if attr.data_type is not DataType.INT:
            raise SchemaError(
                f"column {column} is not INT; only integer columns are "
                "indexable"
            )
        return values[self.schema.column_index(column)]  # type: ignore[return-value]


def _column_values(
    rows: Sequence[Tuple[object, bytes]], offset: int, length: int
) -> Union[array[int], List[str]]:
    """One column of a page's records, decoded from its byte offset:
    an ``array('q')`` for INT (``length`` 0), else decoded strings as
    :meth:`RecordSerializer.unpack` returns them."""
    if not length:
        column = array("q")
        column.frombytes(b"".join([p[offset : offset + 8] for _, p in rows]))
        if _BIG_ENDIAN:
            column.byteswap()
        return column
    return [
        p[offset : offset + length].rstrip(b"\x00").decode("utf-8")
        for _, p in rows
    ]


class Catalog:
    """Name → table registry."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableInfo] = {}

    def __deepcopy__(self, memo: dict) -> "Catalog":
        clone = memo[id(self)] = object.__new__(type(self))
        clone._tables = {
            name: copy.deepcopy(table, memo)
            for name, table in self._tables.items()
        }
        return clone

    def add_table(self, table: TableInfo) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name} already exists")
        self._tables[table.name] = table

    def drop_table(self, name: str) -> TableInfo:
        try:
            return self._tables.pop(name)
        except KeyError:
            raise CatalogError(f"no table named {name}")

    def table(self, name: str) -> TableInfo:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name}")

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> List[TableInfo]:
        return list(self._tables.values())
