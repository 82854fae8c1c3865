"""LRU buffer pool over the simulated disk.

The paper's prototype used 10 MB of main memory (5 MB in most
experiments) both as an I/O cache and as sort space.  This buffer pool
models the cache half: a fixed number of frames with LRU replacement,
pin counts, and write-back of dirty frames on eviction.

The buffer pool is what makes the ``sorted/trad`` and
``not sorted/trad`` baselines diverge: with a sorted delete list the
relevant index pages are touched in physical order and each is fetched
once, while an unsorted list thrashes the pool and re-fetches leaf
pages over and over (Experiment 4 in the paper varies exactly this).
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import BufferPoolError, StorageError
from repro.storage.disk import SimulatedDisk


@dataclass
class BufferStats:
    """Hit/miss and eviction counters for a buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "BufferStats":
        return BufferStats(**vars(self))

    def delta_since(self, earlier: "BufferStats") -> "BufferStats":
        return BufferStats(
            **{k: getattr(self, k) - getattr(earlier, k) for k in vars(self)}
        )


class _Frame:
    __slots__ = ("page_id", "data", "dirty", "pin_count")

    def __init__(self, page_id: int, data: bytearray) -> None:
        self.page_id = page_id
        self.data = data
        self.dirty = False
        self.pin_count = 0

    def __deepcopy__(self, memo: dict) -> "_Frame":
        clone = memo[id(self)] = _Frame(self.page_id, bytearray(self.data))
        clone.dirty = self.dirty
        clone.pin_count = self.pin_count
        return clone


class PinnedPage:
    """Context-manager handle to a pinned page.

    ``data`` is the live ``bytearray`` of the frame; callers that modify
    it must call :meth:`mark_dirty` (or pass ``dirty=True`` on exit via
    :meth:`BufferPool.unpin`).
    """

    def __init__(self, pool: "BufferPool", frame: _Frame) -> None:
        self._pool = pool
        self._frame = frame
        self._dirty = False
        self._epoch = pool._epoch

    @property
    def page_id(self) -> int:
        return self._frame.page_id

    @property
    def data(self) -> bytearray:
        return self._frame.data

    def mark_dirty(self) -> None:
        self._dirty = True

    def __enter__(self) -> "PinnedPage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._epoch != self._pool._epoch:
            # The pool was invalidated (simulated crash) while this page
            # was pinned; there is nothing left to unpin.
            return
        self._pool.unpin(self._frame.page_id, dirty=self._dirty)


class BufferPool:
    """A fixed-capacity LRU page cache with pinning and write-back."""

    def __init__(self, disk: SimulatedDisk, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity_pages = capacity_pages
        self.stats = BufferStats()
        # Insertion order == LRU order (oldest first).
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        # Bumped by invalidate_all(); pins taken before an invalidation
        # unwind without complaining that their frame vanished.
        self._epoch = 0
        #: Full-page-image hook: called as ``sink(page_id, image)`` with
        #: the page's *durable* bytes the first time a clean resident
        #: frame is dirtied.  Recovery uses it to log pre-images so torn
        #: writes can be repaired (fresh ``pin_new`` frames are born
        #: dirty and are skipped — their durable pre-image is zeros and
        #: nothing references them until a later flush).
        self.page_image_sink: Optional[Callable[[int, bytes], None]] = None
        #: Media recovery layer (:class:`repro.media.MediaRecovery`, or
        #: anything with ``read(page_id) -> bytes``).  When set, pool
        #: misses read through it, gaining retry/backoff on transient
        #: read faults and repair-from-image on checksum mismatches.
        #: ``None`` (the default) keeps misses on the plain disk read.
        self.media: Optional[Any] = None

    def __deepcopy__(self, memo: dict) -> "BufferPool":
        """The fork's copy: every frame with its own buffer, in LRU
        order; the disk and the hooks through ``memo``."""
        clone = memo[id(self)] = object.__new__(type(self))
        clone.__dict__.update(
            self.__dict__,
            disk=copy.deepcopy(self.disk, memo),
            stats=self.stats.snapshot(),
            _frames=OrderedDict(
                (page_id, copy.deepcopy(frame, memo))
                for page_id, frame in self._frames.items()
            ),
            page_image_sink=copy.deepcopy(self.page_image_sink, memo),
            media=copy.deepcopy(self.media, memo),
        )
        return clone

    @classmethod
    def with_byte_budget(cls, disk: SimulatedDisk, budget_bytes: int) -> "BufferPool":
        """Size the pool from a byte budget (at least one frame)."""
        frames = max(1, budget_bytes // disk.page_size)
        return cls(disk, frames)

    @contextmanager
    def attached(
        self,
        media: Optional[Any] = None,
        page_image_sink: Optional[Callable[[int, bytes], None]] = None,
    ) -> Iterator[None]:
        """Attach ``media`` and/or ``page_image_sink`` for a ``with`` block.

        ``None`` leaves that hook as it is.  On exit — also when the
        block raises — both hooks go back to what they were on entry,
        so a statement issued under an outer caller's attachment (a
        media sweep, a retention run) does not detach it.
        """
        previous = (self.media, self.page_image_sink)
        if media is not None:
            self.media = media
        if page_image_sink is not None:
            self.page_image_sink = page_image_sink
        try:
            yield
        finally:
            self.media, self.page_image_sink = previous

    # ------------------------------------------------------------------
    # pinning API
    # ------------------------------------------------------------------
    def pin(self, page_id: int, cold: bool = False) -> PinnedPage:
        """Pin ``page_id`` into the pool, fetching it on a miss.

        ``cold`` requests scan-resistant placement: a freshly fetched
        frame is inserted at the LRU end so it is the next eviction
        victim.  Single-record base-table accesses use this so that a
        stream of data pages does not flush the index pages out of the
        pool — the paper's prototype likewise dedicates its buffer
        memory to "pages of indices and/or base tables" rather than
        letting one stream evict the other.
        """
        frame = self._frames.get(page_id)
        observer = self.disk.observer
        if frame is not None:
            self.stats.hits += 1
            if observer is not None:
                observer.on_buffer_hit()  # type: ignore[attr-defined]
            if not cold:
                self._frames.move_to_end(page_id)
        else:
            self.stats.misses += 1
            if observer is not None:
                observer.on_buffer_miss()  # type: ignore[attr-defined]
            self._make_room()
            if self.media is not None:
                data = bytearray(self.media.read(page_id))
            else:
                data = bytearray(self.disk.read_page(page_id))
            frame = _Frame(page_id, data)
            self._frames[page_id] = frame
            if cold:
                self._frames.move_to_end(page_id, last=False)
        frame.pin_count += 1
        return PinnedPage(self, frame)

    def pin_new(self, file_id: int) -> PinnedPage:
        """Allocate a fresh page on disk and pin it (already zeroed)."""
        page_id = self.disk.allocate_page(file_id)
        self._make_room()
        frame = _Frame(page_id, bytearray(self.disk.page_size))
        # A freshly allocated page does not need a disk read, but it must
        # reach the disk eventually.
        frame.dirty = True
        frame.pin_count = 1
        self._frames[page_id] = frame
        return PinnedPage(self, frame)

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count <= 0:
            raise BufferPoolError(f"unpin of page {page_id} that is not pinned")
        if dirty:
            if not frame.dirty and self.page_image_sink is not None:
                # Clean -> dirty: the disk still holds the last durable
                # image of this page; capture it before it can be
                # overwritten by a (possibly torn) write-back.
                self.page_image_sink(
                    page_id, self.disk.durable_image(page_id)
                )
            frame.dirty = True
        frame.pin_count -= 1

    # ------------------------------------------------------------------
    # flushing and invalidation
    # ------------------------------------------------------------------
    def flush_page(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is not None and frame.dirty:
            self.disk.write_page(page_id, bytes(frame.data))
            self.stats.dirty_writebacks += 1
            if self.disk.observer is not None:
                self.disk.observer.on_buffer_writeback()  # type: ignore[attr-defined]
            frame.dirty = False

    def flush_all(self) -> None:
        """Write back every dirty frame, in page-id order.

        Sorting by page id turns the write burst into a mostly
        sequential pass, as an elevator scheduler would.
        """
        for page_id in sorted(self._frames):
            self.flush_page(page_id)

    def discard(self, page_id: int) -> None:
        """Drop a frame without writing it back (for freed pages)."""
        frame = self._frames.get(page_id)
        if frame is None:
            return
        if frame.pin_count > 0:
            raise BufferPoolError(f"cannot discard pinned page {page_id}")
        del self._frames[page_id]

    def clear(self) -> None:
        """Flush everything and empty the pool (e.g. on shutdown)."""
        self.flush_all()
        for frame in self._frames.values():
            if frame.pin_count > 0:
                raise BufferPoolError("cannot clear pool with pinned pages")
        self._frames.clear()

    def invalidate_all(self) -> None:
        """Drop every frame *without* write-back (simulated power loss).

        Dirty pages that were never flushed are lost, exactly as a crash
        would lose them; the recovery tests rely on this.  Pins taken
        before the invalidation become no-ops on release (the exception
        that models the crash unwinds through their ``with`` blocks).
        """
        self._frames.clear()
        self._epoch += 1

    def contains(self, page_id: int) -> bool:
        return page_id in self._frames

    def pinned_page_ids(self) -> List[int]:
        """Resident pages with a nonzero pin count, sorted."""
        return sorted(
            page_id
            for page_id, frame in self._frames.items()
            if frame.pin_count > 0
        )

    @property
    def resident_count(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _make_room(self) -> None:
        if len(self._frames) < self.capacity_pages:
            return
        for page_id, frame in self._frames.items():
            if frame.pin_count == 0:
                if frame.dirty:
                    self.disk.write_page(page_id, bytes(frame.data))
                    self.stats.dirty_writebacks += 1
                del self._frames[page_id]
                self.stats.evictions += 1
                if self.disk.observer is not None:
                    self.disk.observer.on_buffer_eviction(  # type: ignore[attr-defined]
                        frame.dirty
                    )
                return
        raise BufferPoolError("all buffer frames are pinned")
