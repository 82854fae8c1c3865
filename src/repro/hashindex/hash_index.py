"""A page-based static hash index.

The paper's §5: "This work was restricted to B+-trees; in our
prototype, other kinds of indices are updated in the traditional way."
This module supplies such an "other kind": a bucket-directory hash
index whose buckets are page chains (primary page + overflow pages).
The bulk-delete executor maintains hash indexes record-at-a-time —
exactly the prototype's behaviour — which the
``test_ablation_hash_index_drag`` bench shows dragging a vertical plan
back toward horizontal cost.  Generalizing the bd operator to hash
structures is the paper's future work, and deliberately not done here.

Bucket page layout (little-endian)::

    u16 entry_count   u16 reserved   i64 overflow_page (0 = none)
    entries: (i64 key, i64 value) pairs

The pairs use the B-link node's codec
(:func:`repro.btree.node.unpack_pairs` / ``pack_pairs``): decoded, a
bucket page is a key column and a value column.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.btree.node import pack_pairs, unpack_pairs
from repro.errors import IndexError_, UniqueViolationError
from repro.storage.buffer import BufferPool

_HEADER = struct.Struct("<HHq")
HEADER_SIZE = _HEADER.size  # 12
ENTRY_SIZE = 16

Entry = Tuple[int, int]


def _hash_key(key: int, buckets: int) -> int:
    """Multiplicative hash (Knuth); stable across runs."""
    return ((key * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)) % buckets


def _column() -> array[int]:
    return array("q")


@dataclass
class _BucketPage:
    """Decoded bucket page: parallel key and value columns."""

    page_id: int
    keys: array[int] = field(default_factory=_column)
    values: array[int] = field(default_factory=_column)
    overflow: int = 0  # 0 = none

    @classmethod
    def unpack(cls, page_id: int, data: bytes) -> "_BucketPage":
        count, _, overflow = _HEADER.unpack_from(data, 0)
        keys, values = unpack_pairs(data, HEADER_SIZE, count)
        return cls(page_id, keys, values, overflow)

    def pack_into(self, data: bytearray) -> None:
        # Entries first: an over-full page raises with ``data`` untouched.
        pack_pairs(data, HEADER_SIZE, self.keys, self.values)
        _HEADER.pack_into(data, 0, len(self.keys), 0, self.overflow)

    def append(self, key: int, value: int) -> None:
        self.keys.append(key)
        self.values.append(value)

    def positions(self, key: int) -> Iterator[int]:
        """Positions of the entries with ``key``, found by C-level scans
        of the key column."""
        pos = 0
        for _ in range(self.keys.count(key)):
            pos += self.keys[pos:].index(key)
            yield pos
            pos += 1


class HashIndex:
    """Static-directory hash index with overflow chaining.

    The bucket count is fixed at creation (size it from the expected
    entry count); load beyond ~1 entry per slot degrades gracefully
    into overflow chains.  All operations are record-at-a-time — there
    is no leaf order to sweep, which is precisely why the paper's bd
    operator does not apply to it.
    """

    def __init__(
        self,
        pool: BufferPool,
        name: str = "hash-index",
        bucket_count: int = 64,
        unique: bool = False,
    ) -> None:
        if bucket_count < 1:
            raise IndexError_("hash index needs at least one bucket")
        self.pool = pool
        self.name = name
        self.unique = unique
        self.bucket_count = bucket_count
        self.file_id = pool.disk.create_file()
        self.capacity_per_page = (
            pool.disk.page_size - HEADER_SIZE
        ) // ENTRY_SIZE
        self._buckets: List[int] = []
        for _ in range(bucket_count):
            with pool.pin_new(self.file_id) as pinned:
                page = _BucketPage(pinned.page_id)
                page.pack_into(pinned.data)
                pinned.mark_dirty()
                self._buckets.append(pinned.page_id)
        self._entry_count = 0

    @classmethod
    def sized_for(
        cls,
        pool: BufferPool,
        expected_entries: int,
        name: str = "hash-index",
        unique: bool = False,
        fill: float = 0.7,
    ) -> "HashIndex":
        """Create with a bucket count targeting ``fill`` page occupancy."""
        per_page = (pool.disk.page_size - HEADER_SIZE) // ENTRY_SIZE
        buckets = max(1, round(expected_entries / max(1.0, per_page * fill)))
        return cls(pool, name=name, bucket_count=buckets, unique=unique)

    # ------------------------------------------------------------------
    # page I/O
    # ------------------------------------------------------------------
    def _read(self, page_id: int) -> _BucketPage:
        with self.pool.pin(page_id) as pinned:
            return _BucketPage.unpack(page_id, pinned.data)

    def _write(self, page: _BucketPage) -> None:
        with self.pool.pin(page.page_id) as pinned:
            page.pack_into(pinned.data)
            pinned.mark_dirty()

    def _chain(self, key: int) -> Iterator[_BucketPage]:
        page_id = self._buckets[_hash_key(key, self.bucket_count)]
        while page_id:
            page = self._read(page_id)
            yield page
            page_id = page.overflow

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        if self.unique and self.search(key):
            raise UniqueViolationError(
                f"duplicate key {key} in unique hash index {self.name}"
            )
        last: Optional[_BucketPage] = None
        for page in self._chain(key):
            if len(page.keys) < self.capacity_per_page:
                page.append(key, value)
                self._write(page)
                self._entry_count += 1
                return
            last = page
        assert last is not None
        with self.pool.pin_new(self.file_id) as pinned:
            overflow = _BucketPage(pinned.page_id)
            overflow.append(key, value)
            overflow.pack_into(pinned.data)
            pinned.mark_dirty()
        last.overflow = overflow.page_id
        self._write(last)
        self._entry_count += 1

    def search(self, key: int) -> List[int]:
        return [
            page.values[pos]
            for page in self._chain(key)
            for pos in page.positions(key)
        ]

    def contains(self, key: int, value: Optional[int] = None) -> bool:
        values = self.search(key)
        return bool(values) if value is None else value in values

    def delete(self, key: int, value: Optional[int] = None) -> bool:
        """Remove one matching entry; returns whether one was found."""
        for page in self._chain(key):
            for pos in page.positions(key):
                if value is None or page.values[pos] == value:
                    del page.keys[pos]
                    del page.values[pos]
                    self._write(page)
                    self._entry_count -= 1
                    return True
        return False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return self._entry_count

    def items(self) -> Iterator[Entry]:
        """Every entry, in bucket order (hash indexes have no key order)."""
        for bucket in self._buckets:
            page_id = bucket
            while page_id:
                page = self._read(page_id)
                yield from zip(page.keys, page.values)
                page_id = page.overflow

    def page_count(self) -> int:
        count = 0
        for bucket in self._buckets:
            page_id = bucket
            while page_id:
                count += 1
                page_id = self._read(page_id).overflow
        return count

    def validate(self) -> None:
        """Check counts and chain reachability."""
        total = 0
        for bucket_no, bucket in enumerate(self._buckets):
            page_id = bucket
            seen = set()
            while page_id:
                if page_id in seen:
                    raise IndexError_(
                        f"overflow cycle in bucket {bucket_no}"
                    )
                seen.add(page_id)
                page = self._read(page_id)
                for key in page.keys:
                    if _hash_key(key, self.bucket_count) != bucket_no:
                        raise IndexError_(
                            f"key {key} in wrong bucket {bucket_no}"
                        )
                total += len(page.keys)
                page_id = page.overflow
        if total != self._entry_count:
            raise IndexError_(
                f"entry_count {self._entry_count} but buckets hold {total}"
            )

    def drop(self) -> None:
        for bucket in self._buckets:
            page_id = bucket
            while page_id:
                next_id = self._read(page_id).overflow
                self.pool.discard(page_id)
                self.pool.disk.free_page(page_id)
                page_id = next_id
        self._buckets = []
        self._entry_count = 0
