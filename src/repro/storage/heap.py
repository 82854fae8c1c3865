"""Heap files: unordered record storage addressed by RID.

A heap file owns a sequence of slotted pages inside one disk file.
Records are addressed by :class:`~repro.storage.rid.RID` and those
addresses stay stable across deletes (slots are tombstoned, not
renumbered), which the paper's RID-based index maintenance requires.

The page-id list and the free-space map are kept in memory; a real
engine would store them in catalog pages, but they are metadata whose
size is ~0.1 % of the data and they do not affect the measured I/O
patterns.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PageFullError, StorageError
from repro.storage.buffer import BufferPool, PinnedPage
from repro.storage.freespace import FreeSpaceMap
from repro.storage.page_formats import SlottedPage
from repro.storage.rid import RID


class HeapFile:
    """A heap of fixed- or variable-size records over slotted pages."""

    def __init__(self, pool: BufferPool, name: str = "heap") -> None:
        self.pool = pool
        self.name = name
        self.file_id = pool.disk.create_file()
        self.page_ids: List[int] = []
        self._page_set: set = set()
        self.fsm = FreeSpaceMap()
        self._record_count = 0

    # ------------------------------------------------------------------
    # basic record operations
    # ------------------------------------------------------------------
    def insert(self, payload: bytes) -> RID:
        """Insert a record, preferring pages with reusable free space.

        A page whose stranded (deleted) payload would make room is
        compacted in place before the insert — RIDs of its survivors
        are unaffected because compaction preserves slot numbers.
        """
        target = self.fsm.find_page_with(len(payload) + 8)
        if target is not None:
            with self.pool.pin(target) as pinned:
                page = SlottedPage(pinned.data)
                slot = None
                if not page.can_fit(len(payload)) and (
                    page.potential_free_space() >= len(payload)
                ):
                    page.compact()
                    pinned.mark_dirty()
                try:
                    slot = page.insert(payload)
                except PageFullError:
                    slot = None
                else:
                    pinned.mark_dirty()
                    self.fsm.record(target, page.potential_free_space())
            if slot is not None:
                self._record_count += 1
                return RID(target, slot)
            self.fsm.forget(target)
        return self.append(payload)

    def append(self, payload: bytes) -> RID:
        """Insert at the end of the file (bulk-load path, no FSM lookup)."""
        rid = self.extend((payload,))
        assert rid is not None
        return rid

    def extend(self, payloads: Iterable[bytes]) -> Optional[RID]:
        """Append ``payloads`` in order at the end of the file; returns
        the RID of the last one (``None`` when there was none).

        Pages are filled one pin at a time: the last page takes what
        fits, then each fresh page (``pin_new``) is filled before the
        next is allocated, and the free-space map hears about a page
        once, when it is left.  Pins, allocations and evictions come in
        the order record-at-a-time appends would take them, so page
        bytes and disk statistics do not depend on the batch size.
        """
        rest = iter(payloads)
        payload = next(rest, None)
        rid = None
        if payload is not None and self.page_ids:
            with self.pool.pin(self.page_ids[-1]) as pinned:
                payload, rid = self._fill(pinned, payload, rest, fresh=False)
        while payload is not None:
            with self.pool.pin_new(self.file_id) as pinned:
                SlottedPage.format_empty(pinned.data)
                payload, rid = self._fill(pinned, payload, rest, fresh=True)
        return rid

    def _fill(
        self,
        pinned: PinnedPage,
        payload: bytes,
        rest: Iterator[bytes],
        fresh: bool,
    ) -> Tuple[Optional[bytes], Optional[RID]]:
        """Fill the pinned page with ``payload`` and its successors from
        ``rest`` (:meth:`SlottedPage.fill`); returns the first payload
        left over and the RID of the last one placed.

        A fresh page takes its first payload unconditionally, so one
        that cannot fit an empty page raises :class:`PageFullError`.
        The bookkeeping runs also when ``rest`` raises part-way.
        """
        page = SlottedPage(pinned.data)
        page_id = pinned.page_id
        live = page.live_records
        try:
            slot, payload = page.fill(payload, rest, force=fresh)
        finally:
            placed = page.live_records - live
            if placed:
                pinned.mark_dirty()
                self.fsm.record(page_id, page.free_space())
                self._record_count += placed
                if fresh:
                    self.page_ids.append(page_id)
                    self._page_set.add(page_id)
        return payload, None if slot is None else RID(page_id, slot)

    def read(self, rid: RID) -> bytes:
        self._check_rid(rid)
        with self.pool.pin(rid.page_id) as pinned:
            return SlottedPage(pinned.data).read(rid.slot)

    def exists(self, rid: RID) -> bool:
        if rid.page_id not in self._page_id_set():
            return False
        with self.pool.pin(rid.page_id) as pinned:
            return SlottedPage(pinned.data).is_live(rid.slot)

    def delete(self, rid: RID, cold: bool = False) -> bytes:
        """Tombstone one record and return its payload.

        ``cold`` marks this as a point access that should not displace
        hotter (index) pages from the buffer pool.
        """
        self._check_rid(rid)
        with self.pool.pin(rid.page_id, cold=cold) as pinned:
            page = SlottedPage(pinned.data)
            payload = page.delete(rid.slot)
            pinned.mark_dirty()
            self.fsm.record(rid.page_id, page.potential_free_space())
        self._record_count -= 1
        return payload

    def update(self, rid: RID, payload: bytes) -> bytes:
        """Rewrite one record in place (same size); returns the old bytes."""
        self._check_rid(rid)
        with self.pool.pin(rid.page_id) as pinned:
            page = SlottedPage(pinned.data)
            old = page.replace(rid.slot, payload)
            pinned.mark_dirty()
        return old

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def delete_many_sorted(
        self,
        rids: Sequence[RID],
        compact_pages: bool = False,
        on_page_deletes: Optional[Callable[[List[Tuple[RID, bytes]]], None]] = None,
    ) -> List[Tuple[RID, bytes]]:
        """Delete RID-sorted records, pinning each page exactly once.

        This is the base-table half of the vertical bulk delete: because
        the RID list is sorted, the pass over the heap file is a
        sequential sweep.  Returns ``(rid, payload)`` pairs of the
        deleted records so downstream index bulk deletes can project the
        key columns they need.
        """
        deleted: List[Tuple[RID, bytes]] = []
        i = 0
        n = len(rids)
        while i < n:
            page_id = rids[i].page_id
            self._check_rid(rids[i])
            start = i
            while i < n and rids[i].page_id == page_id:
                i += 1
            batch = rids[start:i]
            slots = [rid.slot for rid in batch]
            with self.pool.pin(page_id) as pinned:
                page = SlottedPage(pinned.data)
                page_deletes = list(zip(batch, page.read_many(slots)))
                if on_page_deletes is not None:
                    # WAL protocol: redo record before the page changes.
                    on_page_deletes(page_deletes)
                page.delete_many(slots)
                self._record_count -= len(slots)
                deleted.extend(page_deletes)
                if compact_pages:
                    page.compact()
                pinned.mark_dirty()
                self.fsm.record(page_id, page.potential_free_space())
        return deleted

    def update_many_sorted(
        self,
        updates: Sequence[Tuple[RID, bytes]],
    ) -> List[Tuple[RID, bytes]]:
        """Rewrite RID-sorted records in place, one page pin per page.

        The heap half of a vertical bulk UPDATE: like the delete sweep,
        a RID-sorted list turns the pass into sequential I/O.  Returns
        ``(rid, old_payload)`` pairs.
        """
        out: List[Tuple[RID, bytes]] = []
        i = 0
        n = len(updates)
        while i < n:
            page_id = updates[i][0].page_id
            self._check_rid(updates[i][0])
            with self.pool.pin(page_id) as pinned:
                page = SlottedPage(pinned.data)
                while i < n and updates[i][0].page_id == page_id:
                    rid, payload = updates[i]
                    out.append((rid, page.replace(rid.slot, payload)))
                    i += 1
                pinned.mark_dirty()
        return out

    def scan(self) -> Iterator[Tuple[RID, bytes]]:
        """Yield every live record in physical (RID) order."""
        for page_id in self.page_ids:
            with self.pool.pin(page_id) as pinned:
                rows = SlottedPage(pinned.data).records()
            for slot, payload in rows:
                yield RID(page_id, slot), payload

    def scan_pages(self) -> Iterator[Tuple[int, List[Tuple[int, bytes]]]]:
        """Yield ``(page_id, [(slot, payload), ...])`` page by page."""
        for page_id in self.page_ids:
            with self.pool.pin(page_id) as pinned:
                rows = SlottedPage(pinned.data).records()
            yield page_id, rows

    def reclaim_empty_pages(self) -> int:
        """Free fully empty pages (free-at-empty); returns count freed.

        The paper only reclaims completely empty pages, following
        Johnson & Shasha [9]; partially empty pages keep their records
        so RIDs stay valid.
        """
        survivors: List[int] = []
        freed = 0
        for page_id in self.page_ids:
            with self.pool.pin(page_id) as pinned:
                empty = SlottedPage(pinned.data).is_empty()
            if empty:
                self.pool.discard(page_id)
                self.pool.disk.free_page(page_id)
                self.fsm.forget(page_id)
                freed += 1
            else:
                survivors.append(page_id)
        self.page_ids = survivors
        self._page_set = set(survivors)
        return freed

    def drop(self) -> None:
        """Free every page of the file."""
        for page_id in self.page_ids:
            self.pool.discard(page_id)
            self.pool.disk.free_page(page_id)
        self.page_ids = []
        self._page_set = set()
        self.fsm = FreeSpaceMap()
        self._record_count = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def page_count(self) -> int:
        return len(self.page_ids)

    def _page_id_set(self) -> set:
        return self._page_set

    def _check_rid(self, rid: RID) -> None:
        if rid.page_id not in self._page_id_set():
            raise StorageError(
                f"RID {rid} does not point into heap file {self.name}"
            )
