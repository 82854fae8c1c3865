"""The ``Database`` facade: the public entry point of the engine.

Wires together the simulated disk, buffer pool, catalog, heap files and
B-link trees, and offers record-level DML (the horizontal path) plus
hooks the bulk-delete executors build on.

The single ``memory_bytes`` budget plays the role of the paper's "main
memory" knob (Experiment 4): it sizes the buffer pool, and the same
figure is handed to external sorts as their workspace — matching the
paper's note that the prototype uses its memory "not only for caching
but also to carry out sorting".
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.btree.tree import BLinkTree
from repro.catalog.catalog import (
    ENGINE_HEAP,
    ENGINE_LSM,
    ENGINE_NAMES,
    Catalog,
    IndexInfo,
    IndexState,
    TableInfo,
)
from repro.catalog.composite import CompositeKeyCodec
from repro.catalog.schema import Attribute, DataType, TableSchema
from repro.errors import (
    CatalogError,
    ForkError,
    IndexOfflineError,
    UniqueViolationError,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskParameters, SimClock, SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.rid import RID

DEFAULT_MEMORY_BYTES = 10 * 1024 * 1024


class Database:
    """An embedded, single-process relational engine instance."""

    def __init__(
        self,
        page_size: int = 4096,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
        disk_parameters: Optional[DiskParameters] = None,
    ) -> None:
        self.disk = SimulatedDisk(page_size=page_size, parameters=disk_parameters)
        self.pool = BufferPool.with_byte_budget(self.disk, memory_bytes)
        self.memory_bytes = memory_bytes
        self.catalog = Catalog()
        #: Attached :class:`repro.obs.observer.Observer`, or ``None``
        #: (the default: no tracing, no metrics, no overhead).  Use
        #: :meth:`observe` / ``repro.obs.observed(db)`` to manage it.
        self.obs: Optional[object] = None

    # ------------------------------------------------------------------
    # copy-on-write fork
    # ------------------------------------------------------------------
    def fork(self) -> "Database":
        """A copy-on-write clone: simulated-identical to this database,
        independent of it from here on.

        Page images are immutable ``bytes`` and are shared; everything
        mutable (catalog and structure metadata, free-space maps, clock,
        disk and pool counters, checksums, freed and quarantined pages,
        the pool's frames in LRU order with their dirty bits) is copied.
        A statement issued on the fork is billed exactly as on a fresh
        build of the same database.  Raises :class:`ForkError` while an
        observer, fault injector, lane or media recovery is attached, or
        while any frame is pinned.

        To fork a database *together with* objects that point at it (a
        WAL, a constraint registry, a sweep case), ``copy.deepcopy`` the
        enclosing object: the database is cloned once and every
        reference is rebound to the clone.
        """
        return copy.deepcopy(self)

    def __deepcopy__(self, memo: dict) -> "Database":
        refusals = self._fork_refusals()
        if refusals:
            raise ForkError("cannot fork the database: " + "; ".join(refusals))
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(self.__dict__, memo))
        return clone

    def _fork_refusals(self) -> List[str]:
        """What makes this instance unsafe to copy right now."""
        disk, pool = self.disk, self.pool
        refusals: List[str] = []
        if self.obs is not None or disk.observer is not None:
            refusals.append("an observer is attached")
        if disk.fault_injector is not None:
            refusals.append("a fault injector is armed")
        if disk.active_lane is not None:
            refusals.append(f"lane {disk.active_lane} is active")
        if pool.media is not None:
            refusals.append("media recovery is attached to the pool")
        pinned = pool.pinned_page_ids()
        if pinned:
            refusals.append(f"pages {pinned} are pinned")
        return refusals

    @property
    def clock(self) -> SimClock:
        return self.disk.clock

    @property
    def page_size(self) -> int:
        return self.disk.page_size

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self,
        schema: TableSchema,
        engine: str = "heap",
        key_column: Optional[str] = None,
        lsm_config: Optional[object] = None,
    ) -> TableInfo:
        """Create a table on the chosen storage engine.

        ``engine="heap"`` (the default) is the paper's heap + B-link
        path.  ``engine="lsm"`` keys the rows by ``key_column`` (an INT
        column; defaults to the schema's first column) and stores them
        in a delete-aware :class:`~repro.lsm.tree.LsmTree`;
        ``lsm_config`` tunes it.  See ``docs/storage_engines.md``.
        """
        if engine not in ENGINE_NAMES:
            raise CatalogError(
                f"unknown storage engine {engine!r}; "
                f"choose from {sorted(ENGINE_NAMES)}"
            )
        if engine == ENGINE_HEAP and (
            key_column is not None or lsm_config is not None
        ):
            raise CatalogError(
                "key_column/lsm_config only apply to engine='lsm'"
            )
        heap = HeapFile(self.pool, name=schema.name)
        table = TableInfo(schema, heap)
        if engine == ENGINE_LSM:
            from repro.lsm.tree import LsmConfig, LsmTree

            column = key_column or schema.attributes[0].name
            if schema.attribute(column).data_type is not DataType.INT:
                raise CatalogError(
                    f"LSM key column {column} must be INT"
                )
            if lsm_config is not None and not isinstance(
                lsm_config, LsmConfig
            ):
                raise CatalogError("lsm_config must be an LsmConfig")
            table.lsm = LsmTree(
                self.pool, name=schema.name, config=lsm_config
            )
            table.lsm_key_column = column
        self.catalog.add_table(table)
        return table

    def create_sharded_table(
        self,
        schema: TableSchema,
        shard_column: str,
        bounds: Sequence[int],
    ) -> TableInfo:
        """Create a range-sharded table: a logical entry plus one
        physical table per key range.

        ``bounds`` are the strictly increasing interior split points on
        ``shard_column`` (``len(bounds) + 1`` shards, open outer ends;
        a key on a bound belongs to the upper shard).  Rows live only
        in the physical shards (``{name}::s{i}``); the logical entry
        carries the map and routes DML.
        """
        from repro.shard.map import ShardMap

        if not schema.has_column(shard_column):
            raise CatalogError(
                f"table {schema.name} has no shard column {shard_column}"
            )
        if schema.attribute(shard_column).data_type is not DataType.INT:
            raise CatalogError(
                f"shard column {shard_column} must be INT"
            )
        shard_map = ShardMap(column=shard_column, bounds=tuple(bounds))
        table = self.create_table(schema)
        table.shard_map = shard_map
        for shard_id in range(shard_map.shard_count):
            shard_schema = TableSchema.of(
                f"{schema.name}::s{shard_id}", list(schema.attributes)
            )
            table.shards.append(self.create_table(shard_schema))
        return table

    def create_sharded_index(
        self,
        table_name: str,
        column: str,
        unique: bool = False,
        clustered: bool = False,
        max_leaf_entries: Optional[int] = None,
        max_inner_entries: Optional[int] = None,
        build_method: str = "bulk",
    ) -> List[IndexInfo]:
        """Create one index per shard of a sharded table.

        Each shard gets its own B-link tree over its own rows — the
        per-shard structures a shard-local bulk delete sweeps without
        touching any other shard.
        """
        table = self.catalog.table(table_name)
        if not table.is_sharded:
            raise CatalogError(
                f"table {table_name} is not sharded; use create_index"
            )
        return [
            self.create_index(
                shard.name, column, unique=unique, clustered=clustered,
                max_leaf_entries=max_leaf_entries,
                max_inner_entries=max_inner_entries,
                build_method=build_method,
            )
            for shard in table.shards
        ]

    def drop_table(self, name: str) -> None:
        table = self.catalog.drop_table(name)
        for shard in table.shards:
            self.drop_table(shard.name)
        for index in list(table.indexes.values()):
            self._drop_structure(index)
        if table.lsm is not None:
            table.lsm.drop()
        table.heap.drop()

    @staticmethod
    def _drop_structure(index: IndexInfo) -> None:
        if index.is_btree:
            index.tree.drop()
        else:
            index.hash_index.drop()

    def create_index(
        self,
        table_name: str,
        column: str,
        name: Optional[str] = None,
        unique: bool = False,
        clustered: bool = False,
        max_leaf_entries: Optional[int] = None,
        max_inner_entries: Optional[int] = None,
        build_method: str = "bulk",
        columns: Optional[Sequence[str]] = None,
        codec: Optional["CompositeKeyCodec"] = None,
    ) -> IndexInfo:
        """Create a B-link index and populate it from the table.

        ``build_method="bulk"`` scans the heap once, sorts the
        ``(key, RID)`` pairs, and bulk-loads the tree bottom-up — the
        efficient CREATE INDEX of a commercial system.
        ``build_method="insert"`` inserts entry-at-a-time in heap-scan
        order instead, which is what the paper's prototype apparently
        did ("creating indices is slower in our prototype than in the
        commercial database system") and what makes its ``drop &
        create`` baseline lose even to the traditional plans in
        Figure 8.
        """
        if build_method not in ("bulk", "insert"):
            raise CatalogError(f"unknown index build method {build_method!r}")
        table = self.catalog.table(table_name)
        if table.lsm is not None:
            raise CatalogError(
                f"table {table_name} is LSM-backed: its runs' fence keys "
                "already index the key column, and secondary indexes "
                "are unsupported (see docs/storage_engines.md)"
            )
        if table.is_sharded:
            raise CatalogError(
                f"table {table_name} is sharded; use create_sharded_index "
                "so every shard gets its own structure"
            )
        index_name = name or f"I_{table_name}_{column}"
        tree = BLinkTree(
            self.pool,
            name=index_name,
            unique=unique,
            max_leaf_entries=max_leaf_entries,
            max_inner_entries=max_inner_entries,
        )
        index = IndexInfo(
            name=index_name,
            table_name=table_name,
            column=column,
            tree=tree,
            unique=unique,
            clustered=clustered,
            columns=tuple(columns) if columns else (),
            codec=codec,
        )
        if build_method == "insert":
            for keys, rids in table.index_entries(index):
                for key, packed_rid in zip(keys, rids):
                    self.disk.charge_cpu_records(1, factor=2.0)
                    tree.insert(key, packed_rid)
        else:
            keys, rids = table.index_columns(index)
            self.disk.charge_cpu_records(len(keys), factor=4.0)  # sort
            tree.bulk_load_columns(keys, rids)
        table.add_index(index)
        return index

    def create_hash_index(
        self,
        table_name: str,
        column: str,
        name: Optional[str] = None,
        unique: bool = False,
        bucket_count: Optional[int] = None,
    ) -> IndexInfo:
        """Create a page-based hash index and populate it from the table.

        Hash indexes do not participate in vertical bulk deletes — the
        executors update them record-at-a-time, the behaviour the
        paper's §5 describes for its prototype's non-B-tree indexes.
        """
        from repro.hashindex import HashIndex

        table = self.catalog.table(table_name)
        if table.lsm is not None:
            raise CatalogError(
                f"table {table_name} is LSM-backed; secondary indexes "
                "are unsupported (see docs/storage_engines.md)"
            )
        index_name = name or f"H_{table_name}_{column}"
        if bucket_count is not None:
            hash_index = HashIndex(
                self.pool, name=index_name,
                bucket_count=bucket_count, unique=unique,
            )
        else:
            hash_index = HashIndex.sized_for(
                self.pool, max(1, table.record_count),
                name=index_name, unique=unique,
            )
        index = IndexInfo(
            name=index_name,
            table_name=table_name,
            column=column,
            kind="hash",
            hash_index=hash_index,
            unique=unique,
        )
        for keys, rids in table.index_entries(index):
            for key, packed_rid in zip(keys, rids):
                self.disk.charge_cpu_records(1)
                hash_index.insert(key, packed_rid)
        table.add_index(index)
        return index

    def drop_index(self, table_name: str, index_name: str) -> None:
        table = self.catalog.table(table_name)
        index = table.drop_index(index_name)
        self._drop_structure(index)

    # ------------------------------------------------------------------
    # record-level DML (the horizontal path)
    # ------------------------------------------------------------------
    def insert(
        self, table_name: str, values: Sequence[object]
    ) -> Optional[RID]:
        """Insert one record and maintain every index immediately.

        Against a sharded table the row routes to the shard covering
        its shard-column value (routing is pure arithmetic: the only
        simulated cost is the shard-local insert itself).  Against an
        LSM table the row upserts by its key column and the return
        value is ``None`` — LSM rows have no stable RID.
        """
        table = self.catalog.table(table_name)
        if table.lsm is not None:
            assert table.lsm_key_column is not None
            key = table.key_of(tuple(values), table.lsm_key_column)
            table.lsm.put(key, table.serializer.pack(values))
            return None
        if table.is_sharded:
            assert table.shard_map is not None
            key = table.key_of(tuple(values), table.shard_map.column)
            shard = table.shard(table.shard_map.shard_of(key))
            return self.insert(shard.name, values)
        payload = table.serializer.pack(values)
        # Fail before touching storage: every index must be on-line and
        # every unique constraint satisfied, or nothing happens at all.
        for index in table.indexes.values():
            self._require_online(index)
        for index in table.indexes.values():
            if index.unique:
                key = index.key_for(tuple(values), table.schema)
                if index.structure_contains(key):
                    raise UniqueViolationError(
                        f"duplicate key {key} for unique index {index.name}"
                    )
        rid = table.heap.insert(payload)
        for index in table.indexes.values():
            key = index.key_for(tuple(values), table.schema)
            index.structure_insert(key, rid.pack())
        return rid

    def load_table(
        self, table_name: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Append rows without index maintenance (call before
        ``create_index`` for bulk setup); returns the number loaded.

        A sharded table routes each row to its covering shard, then
        appends shard-locally in arrival order — one pure-Python
        partition pass, no extra simulated I/O over the unsharded
        load of the same rows.  An LSM table bulk-loads straight into
        level-1 runs (no log traffic, one manifest commit)."""
        table = self.catalog.table(table_name)
        if table.lsm is not None:
            assert table.lsm_key_column is not None
            key_column = table.lsm_key_column
            return table.lsm.bulk_load(
                (
                    table.key_of(tuple(values), key_column),
                    table.serializer.pack(values),
                )
                for values in rows
            )
        if table.is_sharded:
            assert table.shard_map is not None
            shard_map = table.shard_map
            routed: List[List[Sequence[object]]] = [
                [] for _ in range(shard_map.shard_count)
            ]
            for values in rows:
                key = table.key_of(tuple(values), shard_map.column)
                routed[shard_map.shard_of(key)].append(values)
            return sum(
                self.load_table(shard.name, shard_rows)
                for shard, shard_rows in zip(table.shards, routed)
            )
        if table.indexes:
            raise CatalogError(
                "load_table must run before indexes exist; use insert()"
            )
        before = table.heap.record_count
        table.heap.extend(map(table.serializer.pack, rows))
        return table.heap.record_count - before

    def read(self, table_name: str, rid: RID) -> Tuple[object, ...]:
        table = self.catalog.table(table_name)
        return table.serializer.unpack(table.heap.read(rid))

    def delete_record(self, table_name: str, rid: RID) -> Tuple[object, ...]:
        """Delete one record the traditional way: the record leaves the
        heap and *every* index immediately (horizontal processing).

        The heap page is read *cold*: random single-record accesses must
        not flush the index pages the next deletes will need."""
        table = self.catalog.table(table_name)
        if table.lsm is not None:
            raise CatalogError(
                f"table {table_name} is LSM-backed and has no RIDs; "
                "delete by key via bulk_delete"
            )
        if table.is_sharded:
            raise CatalogError(
                f"table {table_name} is sharded and a RID does not name "
                "a shard; delete against the physical shard table"
            )
        payload = table.heap.delete(rid, cold=True)
        values = table.serializer.unpack(payload)
        for index in table.indexes.values():
            self._require_online(index)
            key = index.key_for(values, table.schema)
            index.structure_delete(key, rid.pack())
        return values

    def scan(self, table_name: str):
        """Yield ``(rid, values)`` for every record, in physical order.

        A sharded table chains its shards in range order; RIDs are
        shard-local (two shards may yield the same RID for different
        rows).  An LSM table yields ``(key, values)`` in key order —
        the key plays the RID's role."""
        table = self.catalog.table(table_name)
        if table.lsm is not None:
            for key, payload in table.lsm.scan():
                yield key, table.serializer.unpack(payload)
            return
        if table.is_sharded:
            for shard in table.shards:
                for rid, values in self.scan(shard.name):
                    yield rid, values
            return
        for rid, payload in table.heap.scan():
            yield rid, table.serializer.unpack(payload)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def table(self, name: str) -> TableInfo:
        return self.catalog.table(name)

    @staticmethod
    def _require_online(index: IndexInfo) -> None:
        if not index.is_online:
            raise IndexOfflineError(
                f"index {index.name} is off-line; route the update through "
                "a side-file or direct propagation (repro.txn)"
            )

    def vacuum(self, table_name: str) -> Dict[str, int]:
        """Reclaim space after heavy deletes (an offline maintenance op).

        Frees fully empty heap pages, compacts partially empty ones,
        merges under-full B-tree leaves (the merge-at-half pass of [8],
        optional precisely because free-at-empty leaves structures
        sparse), and flushes.  Returns counters per action.
        """
        from repro.btree.maintenance import merge_underfull_leaves
        from repro.storage.page_formats import SlottedPage

        table = self.catalog.table(table_name)
        if table.lsm is not None:
            compactions = table.lsm.compact_all()
            self.flush()
            return {
                "lsm_compactions": compactions,
                "lsm_data_pages": table.lsm.data_pages,
            }
        report = {
            "heap_pages_freed": table.heap.reclaim_empty_pages(),
            "heap_pages_compacted": 0,
            "leaves_merged": 0,
        }
        for page_id in table.heap.page_ids:
            with self.pool.pin(page_id) as pinned:
                page = SlottedPage(pinned.data)
                if page.potential_free_space() > page.free_space():
                    page.compact()
                    pinned.mark_dirty()
                    report["heap_pages_compacted"] += 1
                table.heap.fsm.record(page_id, page.potential_free_space())
        for index in table.indexes.values():
            if index.is_btree:
                report["leaves_merged"] += merge_underfull_leaves(index.tree)
        self.flush()
        return report

    def observe(self) -> object:
        """Attach and return a fresh observer (``repro.obs``).

        Tracing stays on until :meth:`unobserve`; prefer the
        ``repro.obs.observed(db)`` context manager for scoped use.
        """
        from repro.obs.observer import Observer

        return Observer.attach(self)

    def unobserve(self) -> Optional[object]:
        """Detach and return the current observer, if any."""
        from repro.obs.observer import Observer

        return Observer.detach(self)

    def flush(self) -> None:
        """Write every dirty buffered page back to the simulated disk."""
        self.pool.flush_all()

    def io_report(self) -> str:
        """One-line summary of disk and buffer statistics."""
        d, b = self.disk.stats, self.pool.stats
        return (
            f"io: {d.reads}r/{d.writes}w ({d.random_ios} random), "
            f"buffer hit ratio {b.hit_ratio:.2%}, "
            f"sim time {self.clock.now_seconds:.2f}s"
        )
