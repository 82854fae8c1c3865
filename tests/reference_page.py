"""Reference slotted page: the per-slot ``struct`` class that
``repro.storage.page_formats.SlottedPage`` replaced, kept verbatim as
the oracle for return values, error messages and page bytes.

Every accessor goes through ``_read_header`` / ``_read_slot`` — one
``struct`` call per field per access — which is what made it slow and
what makes it easy to trust.  ``tests/test_page_equivalence.py`` drives
this class and the engine's with the same verb sequences.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.errors import PageFullError, StorageError

_HEADER = struct.Struct("<HHHH")
_SLOT = struct.Struct("<HH")

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size


class ReferenceSlottedPage:
    """A view over a ``bytearray`` implementing the slotted layout.

    The class never owns the buffer; it mutates the ``bytearray`` handed
    to it (normally a pinned buffer-pool frame) in place.
    """

    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.page_size = len(data)

    # ------------------------------------------------------------------
    # header accessors
    # ------------------------------------------------------------------
    @classmethod
    def format_empty(cls, data: bytearray) -> "ReferenceSlottedPage":
        """Initialise ``data`` as an empty slotted page."""
        page = cls(data)
        page._write_header(0, HEADER_SIZE, 0)
        return page

    def _read_header(self) -> Tuple[int, int, int]:
        slot_count, free_start, live, _ = _HEADER.unpack_from(self.data, 0)
        return slot_count, free_start, live

    def _write_header(self, slot_count: int, free_start: int, live: int) -> None:
        _HEADER.pack_into(self.data, 0, slot_count, free_start, live, 0)

    @property
    def slot_count(self) -> int:
        return self._read_header()[0]

    @property
    def live_records(self) -> int:
        return self._read_header()[2]

    # ------------------------------------------------------------------
    # slot directory
    # ------------------------------------------------------------------
    def _slot_pos(self, slot: int) -> int:
        return self.page_size - SLOT_SIZE * (slot + 1)

    def _read_slot(self, slot: int) -> Tuple[int, int]:
        slot_count = self.slot_count
        if not 0 <= slot < slot_count:
            raise StorageError(f"slot {slot} out of range (page has {slot_count})")
        return _SLOT.unpack_from(self.data, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, self._slot_pos(slot), offset, length)

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    def free_space(self) -> int:
        """Bytes available for one more record (including its slot)."""
        slot_count, free_start, _ = self._read_header()
        directory_start = self.page_size - SLOT_SIZE * slot_count
        return max(0, directory_start - free_start - SLOT_SIZE)

    def can_fit(self, record_size: int) -> bool:
        return self.free_space() >= record_size

    def potential_free_space(self) -> int:
        """Free bytes available after a :meth:`compact` pass.

        Deleted records leave their payload bytes stranded until the
        page is compacted; inserts consult this to decide whether
        compaction would make room (classic free-space management, cf.
        [14] in the paper).
        """
        slot_count, _, _ = self._read_header()
        live_bytes = sum(len(payload) for _, payload in self.records())
        has_dead_slot = any(
            self._read_slot(slot)[1] == 0 for slot in range(slot_count)
        )
        directory_start = self.page_size - SLOT_SIZE * slot_count
        free = directory_start - HEADER_SIZE - live_bytes
        if not has_dead_slot:
            free -= SLOT_SIZE  # a new insert would need a new slot
        return max(0, free)

    def insert(self, record: bytes) -> int:
        """Insert ``record`` and return its slot number.

        Reuses a tombstoned slot when one exists (keeping its number),
        otherwise appends a new directory entry.
        """
        if not record:
            raise StorageError("cannot insert an empty record")
        slot_count, free_start, live = self._read_header()
        directory_start = self.page_size - SLOT_SIZE * slot_count
        # Find a dead slot to reuse; a reused slot costs no directory growth.
        reuse: Optional[int] = None
        for slot in range(slot_count):
            _, length = self._read_slot(slot)
            if length == 0:
                reuse = slot
                break
        needed = len(record) + (0 if reuse is not None else SLOT_SIZE)
        if directory_start - free_start < needed:
            raise PageFullError(
                f"record of {len(record)} bytes does not fit "
                f"({directory_start - free_start} bytes free)"
            )
        offset = free_start
        self.data[offset : offset + len(record)] = record
        if reuse is not None:
            slot = reuse
        else:
            slot = slot_count
            slot_count += 1
        self._write_header(slot_count, offset + len(record), live + 1)
        self._write_slot(slot, offset, len(record))
        return slot

    def read(self, slot: int) -> bytes:
        offset, length = self._read_slot(slot)
        if length == 0:
            raise StorageError(f"slot {slot} is empty (deleted record)")
        return bytes(self.data[offset : offset + length])

    def is_live(self, slot: int) -> bool:
        if not 0 <= slot < self.slot_count:
            return False
        return self._read_slot(slot)[1] != 0

    def replace(self, slot: int, record: bytes) -> bytes:
        """Overwrite a record in place (same length only).

        Fixed-layout records make same-size in-place updates trivial;
        the bulk UPDATE executor uses this so RIDs never change and
        indexes on unmodified columns stay untouched.
        """
        offset, length = self._read_slot(slot)
        if length == 0:
            raise StorageError(f"slot {slot} is empty (deleted record)")
        if len(record) != length:
            raise StorageError(
                f"in-place replace needs {length} bytes, got {len(record)}"
            )
        old = bytes(self.data[offset : offset + length])
        self.data[offset : offset + length] = record
        return old

    def delete(self, slot: int) -> bytes:
        """Tombstone ``slot`` and return the old payload."""
        record = self.read(slot)
        slot_count, free_start, live = self._read_header()
        self._write_slot(slot, 0, 0)
        self._write_header(slot_count, free_start, live - 1)
        return record

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot, payload)`` for every live record."""
        for slot in range(self.slot_count):
            offset, length = self._read_slot(slot)
            if length:
                yield slot, bytes(self.data[offset : offset + length])

    def compact(self) -> None:
        """Reclaim payload space of deleted records.

        Slot numbers (and therefore RIDs) are preserved; only payload
        offsets move.  Used by the bulk-delete reorganization pass.
        """
        entries: List[Tuple[int, bytes]] = list(self.records())
        slot_count = self.slot_count
        cursor = HEADER_SIZE
        # Zero payload area first so stale bytes never linger.
        directory_start = self.page_size - SLOT_SIZE * slot_count
        self.data[HEADER_SIZE:directory_start] = bytes(
            directory_start - HEADER_SIZE
        )
        live = 0
        for slot in range(slot_count):
            self._write_slot(slot, 0, 0)
        for slot, payload in entries:
            self.data[cursor : cursor + len(payload)] = payload
            self._write_slot(slot, cursor, len(payload))
            cursor += len(payload)
            live += 1
        self._write_header(slot_count, cursor, live)

    def is_empty(self) -> bool:
        return self.live_records == 0
