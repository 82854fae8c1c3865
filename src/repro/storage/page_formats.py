"""Slotted-page layout for heap files.

Classic slotted page: a header at the front, record payloads growing
from the header towards the end, and a slot directory growing backwards
from the end of the page.  Deleting a record leaves a tombstoned slot so
RIDs of other records stay stable — exactly what the paper's RID-based
bulk deletes rely on.

Layout (little-endian)::

    offset 0   u16  slot_count        (number of directory entries)
    offset 2   u16  free_space_start  (first byte after last payload)
    offset 4   u16  live_records      (non-tombstoned slots)
    offset 6   u16  reserved
    payloads ...
    ... free space ...
    slot directory entries of 4 bytes each, entry i at
    page_size - 4 * (i + 1):  u16 offset, u16 length (length 0 = dead)
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import Iterable, List, Tuple

from repro.errors import PageFullError, StorageError

_HEADER = struct.Struct("<HHHH")
_SLOT = struct.Struct("<HH")

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size

#: Pages are little-endian; ``array`` holds host-order integers.
_BIG_ENDIAN = sys.byteorder == "big"


def page_checksum(data: bytes) -> int:
    """CRC-32 of a full page image.

    Stored *out of band* by :class:`~repro.storage.disk.SimulatedDisk`
    (the way a disk keeps a per-sector ECC/CRC next to the data, not
    inside it), so the page layout — and every cost and golden file
    derived from it — is unchanged.  The disk stamps the checksum of
    the *intended* image on every write and verifies it on every read;
    a torn commit, flipped bit, or stale half therefore fails
    verification on the next read instead of silently reaching an
    operator.
    """
    return zlib.crc32(bytes(data)) & 0xFFFFFFFF


class SlottedPage:
    """A view over a ``bytearray`` implementing the slotted layout.

    The class never owns the buffer; it mutates the ``bytearray`` handed
    to it (normally a pinned buffer-pool frame) in place, and it keeps
    no decoded state between calls, so two views over one frame cannot
    disagree.  Every verb unpacks the header once; a verb that needs the
    whole slot directory decodes it into ``array('H')`` columns with one
    C call instead of one ``struct`` call per slot.
    """

    __slots__ = ("data", "page_size")

    def __init__(self, data: bytearray) -> None:
        self.data = data
        self.page_size = len(data)

    @classmethod
    def format_empty(cls, data: bytearray) -> "SlottedPage":
        """Initialise ``data`` as an empty slotted page."""
        _HEADER.pack_into(data, 0, 0, HEADER_SIZE, 0, 0)
        return cls(data)

    # ------------------------------------------------------------------
    # header and slot directory
    # ------------------------------------------------------------------
    def _header(self) -> Tuple[int, int, int, int]:
        """``(slot_count, free_start, live, directory_start)``.

        The one place the header is decoded, and checked: a directory
        that cannot fit the page would put slot positions before the
        start of the frame, where ``struct`` reads from the other end.
        """
        slot_count, free_start, live, _ = _HEADER.unpack_from(self.data, 0)
        directory_start = self.page_size - SLOT_SIZE * slot_count
        if directory_start < HEADER_SIZE:
            raise StorageError(
                f"corrupt page header: a directory of {slot_count} slots "
                f"(free space at {free_start}, {live} live) does not fit "
                f"a {self.page_size}-byte page"
            )
        return slot_count, free_start, live, directory_start

    @property
    def slot_count(self) -> int:
        return self._header()[0]

    @property
    def live_records(self) -> int:
        return self._header()[2]

    def _live_slot(self, slot: int, slot_count: int) -> Tuple[int, int, int]:
        """``(directory position, offset, length)`` of a live record."""
        if not 0 <= slot < slot_count:
            raise StorageError(f"slot {slot} out of range (page has {slot_count})")
        pos = self.page_size - SLOT_SIZE * (slot + 1)
        offset, length = _SLOT.unpack_from(self.data, pos)
        if length == 0:
            raise StorageError(f"slot {slot} is empty (deleted record)")
        return pos, offset, length

    def _flat_directory(self, slot_count: int) -> array[int]:
        """The directory as stored: ``offset, length`` pairs, last slot
        first (entry ``i`` sits at ``page_size - 4 * (i + 1)``)."""
        flat = array("H")
        flat.frombytes(self.data[self.page_size - SLOT_SIZE * slot_count :])
        if _BIG_ENDIAN:
            flat.byteswap()
        return flat

    def directory(self) -> Tuple[array[int], array[int]]:
        """Decode the whole slot directory in one call.

        Returns ``(offsets, lengths)`` indexed by slot number (length 0
        = dead slot): a snapshot for callers that decode records in
        place under the pin, as the SSTable readers do.
        """
        flat = self._flat_directory(self._header()[0])
        return flat[-2::-2], flat[-1::-2]

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    def free_space(self) -> int:
        """Bytes available for one more record (including its slot)."""
        _, free_start, _, directory_start = self._header()
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
        slot_count, _, _, directory_start = self._header()
        lengths = self._flat_directory(slot_count)[1::2]
        free = directory_start - HEADER_SIZE - sum(lengths)
        if 0 not in lengths:
            free -= SLOT_SIZE  # a new insert would need a new slot
        return max(0, free)

    def insert(self, record: bytes) -> int:
        """Insert ``record`` and return its slot number.

        Reuses the lowest tombstoned slot when one exists (keeping its
        number), otherwise appends a new directory entry.
        """
        size = len(record)
        if not size:
            raise StorageError("cannot insert an empty record")
        slot_count, free_start, live, directory_start = self._header()
        slot = slot_count
        # Only a page with fewer live records than slots has a dead slot
        # to find; an append-only page never decodes its directory.
        if live != slot_count:
            try:
                slot = self._flat_directory(slot_count)[-1::-2].index(0)
            except ValueError:
                pass  # the header miscounts; append, as a full scan would
        # A reused slot costs no directory growth.
        needed = size if slot < slot_count else size + SLOT_SIZE
        if directory_start - free_start < needed:
            raise PageFullError(
                f"record of {size} bytes does not fit "
                f"({directory_start - free_start} bytes free)"
            )
        data = self.data
        data[free_start : free_start + size] = record
        if slot == slot_count:
            slot_count += 1
        _HEADER.pack_into(data, 0, slot_count, free_start + size, live + 1, 0)
        _SLOT.pack_into(
            data, self.page_size - SLOT_SIZE * (slot + 1), free_start, size
        )
        return slot

    def read(self, slot: int) -> bytes:
        _, offset, length = self._live_slot(slot, self._header()[0])
        return bytes(self.data[offset : offset + length])

    def read_many(self, slots: Iterable[int]) -> List[bytes]:
        """:meth:`read` for a batch of slots, in the order given, under
        one header decode."""
        data = self.data
        slot_count = self._header()[0]
        out: List[bytes] = []
        for slot in slots:
            _, offset, length = self._live_slot(slot, slot_count)
            out.append(bytes(data[offset : offset + length]))
        return out

    def is_live(self, slot: int) -> bool:
        if not 0 <= slot < self._header()[0]:
            return False
        pos = self.page_size - SLOT_SIZE * (slot + 1)
        return _SLOT.unpack_from(self.data, pos)[1] != 0

    def replace(self, slot: int, record: bytes) -> bytes:
        """Overwrite a record in place (same length only).

        Fixed-layout records make same-size in-place updates trivial;
        the bulk UPDATE executor uses this so RIDs never change and
        indexes on unmodified columns stay untouched.
        """
        _, offset, length = self._live_slot(slot, self._header()[0])
        if len(record) != length:
            raise StorageError(
                f"in-place replace needs {length} bytes, got {len(record)}"
            )
        old = bytes(self.data[offset : offset + length])
        self.data[offset : offset + length] = record
        return old

    def delete(self, slot: int) -> bytes:
        """Tombstone ``slot`` and return the old payload."""
        data = self.data
        slot_count, free_start, live, _ = self._header()
        pos, offset, length = self._live_slot(slot, slot_count)
        record = bytes(data[offset : offset + length])
        _SLOT.pack_into(data, pos, 0, 0)
        _HEADER.pack_into(data, 0, slot_count, free_start, live - 1, 0)
        return record

    def delete_many(self, slots: Iterable[int]) -> None:
        """:meth:`delete` for a batch of slots under one header decode
        and one header write (also when a bad slot stops it part-way)."""
        data = self.data
        slot_count, free_start, live, _ = self._header()
        try:
            for slot in slots:
                pos, _, _ = self._live_slot(slot, slot_count)
                _SLOT.pack_into(data, pos, 0, 0)
                live -= 1
        finally:
            _HEADER.pack_into(data, 0, slot_count, free_start, live, 0)

    def records(self) -> List[Tuple[int, bytes]]:
        """``(slot, payload)`` of every live record, in slot order.

        A snapshot: directory and payloads are decoded when this is
        called, so the result does not follow later changes to the page.
        """
        offsets, lengths = self.directory()
        view = bytes(self.data)
        return [
            (slot, view[offset : offset + length])
            for slot, (offset, length) in enumerate(zip(offsets, lengths))
            if length
        ]

    def compact(self) -> None:
        """Reclaim payload space of deleted records.

        Slot numbers (and therefore RIDs) are preserved; only payload
        offsets move.  Used by the bulk-delete reorganization pass.
        """
        data = self.data
        slot_count, _, _, directory_start = self._header()
        flat = self._flat_directory(slot_count)
        offsets, lengths = flat[-2::-2], flat[-1::-2]
        packed = array("H", bytes(2 * slot_count))  # dead slots: offset 0
        payloads: List[bytearray] = []
        cursor = HEADER_SIZE
        for slot, (offset, length) in enumerate(zip(offsets, lengths)):
            if length:
                payloads.append(data[offset : offset + length])
                packed[slot] = cursor
                cursor += length
        flat[-2::-2] = packed
        if _BIG_ENDIAN:
            flat.byteswap()
        # The survivors packed from the header on, zeros up to the
        # directory: stale payload bytes never linger.
        data[HEADER_SIZE:directory_start] = b"".join(payloads).ljust(
            directory_start - HEADER_SIZE, b"\x00"
        )
        data[directory_start:] = flat.tobytes()
        _HEADER.pack_into(data, 0, slot_count, cursor, len(payloads), 0)

    def is_empty(self) -> bool:
        return self._header()[2] == 0
