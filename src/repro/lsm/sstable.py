"""Immutable sorted runs (SSTables) on buffer-pool pages.

A run is a sequence of slotted pages holding ``(kind, seq, key,
payload)`` entries in key order, plus run-level metadata
(:class:`RunMeta`): fence keys (first key per page, the in-memory
index that makes a point lookup one page read), the covering key
range, sequence bounds, and the run's range tombstones.  Metadata is
durable through the tree's manifest, not through the data pages — the
classic LSM split between immutable data blocks and a mutable
manifest.

Every page the builder writes is flushed through the buffer pool
immediately, so a run is fully durable (and every write is a
crash-sweep event) before its metadata can reach a manifest commit.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import PageFullError, StorageError
from repro.lsm.memtable import RangeTombstone, Resolution
from repro.storage.buffer import BufferPool
from repro.storage.page_formats import SlottedPage

#: On-page entry header: kind (0 = put, 1 = point tombstone), seq, key.
ENTRY = struct.Struct("<bqq")
KIND_PUT = 0
KIND_TOMBSTONE = 1

#: One entry as a flush/merge item: ``(key, seq, payload | None)``.
Item = Tuple[int, int, Optional[bytes]]


def encode_entry(key: int, seq: int, payload: Optional[bytes]) -> bytes:
    kind = KIND_PUT if payload is not None else KIND_TOMBSTONE
    return ENTRY.pack(kind, seq, key) + (payload or b"")


def decode_entry(
    data: Union[bytes, bytearray], offset: int, length: int
) -> Item:
    """Decode the ``length``-byte entry at ``offset`` of a page image."""
    kind, seq, key = ENTRY.unpack_from(data, offset)
    if kind == KIND_TOMBSTONE:
        return key, seq, None
    if kind != KIND_PUT:
        raise StorageError(f"corrupt run entry kind {kind}")
    return key, seq, bytes(data[offset + ENTRY.size : offset + length])


@dataclass(frozen=True)
class RunMeta:
    """Everything the tree knows about one immutable run.

    ``key_min``/``key_max`` bound the run's *responsibility*, not just
    its resident entries: compaction may assign a run a covering span
    wider than its first/last key so range tombstones keep masking
    keys that only exist at deeper levels.  Within a level ≥ 1 the
    covering spans partition the key space (no overlap), which is what
    makes the per-level lookup a single binary search.
    """

    run_id: int
    level: int
    page_ids: Tuple[int, ...]
    #: First key on each page (parallel to ``page_ids``).
    fences: Tuple[int, ...]
    key_min: int
    key_max: int
    seq_min: int
    seq_max: int
    #: Point entries on the pages (puts + point tombstones).
    entry_count: int
    #: Point tombstones among ``entry_count``.
    tombstones: int
    ranges: Tuple[RangeTombstone, ...]
    #: Oldest tombstone sequence in the run (points or ranges), or -1
    #: when the run holds no tombstones — the age input of the FADE
    #: compaction picker.
    tombstone_seq_min: int

    @property
    def data_pages(self) -> int:
        return len(self.page_ids)

    @property
    def live_entries(self) -> int:
        return self.entry_count - self.tombstones

    @property
    def tombstone_density(self) -> float:
        """Tombstone facts per point entry (ranges each count once)."""
        dead = self.tombstones + len(self.ranges)
        return dead / max(1, self.entry_count)

    def covers(self, key: int) -> bool:
        return self.key_min <= key <= self.key_max


def build_run(
    pool: BufferPool,
    file_id: int,
    run_id: int,
    level: int,
    items: Sequence[Item],
    ranges: Sequence[RangeTombstone] = (),
    cover_lo: Optional[int] = None,
    cover_hi: Optional[int] = None,
) -> RunMeta:
    """Write ``items`` (key-sorted) as one run and return its metadata.

    Each filled page is flushed before the next is started, so the
    run's bytes are durable when this returns; the caller makes the run
    *reachable* with a manifest commit afterwards.  ``cover_lo`` /
    ``cover_hi`` widen the responsibility span (see :class:`RunMeta`).
    """
    page_ids: List[int] = []
    fences: List[int] = []
    page: Optional[SlottedPage] = None
    current_id: Optional[int] = None
    seqs: List[int] = []
    tombstones = 0
    tombstone_seqs: List[int] = []

    def close_page() -> None:
        assert current_id is not None
        pool.unpin(current_id, dirty=True)
        pool.flush_page(current_id)

    last_key: Optional[int] = None
    for key, seq, payload in items:
        if last_key is not None and key <= last_key:
            raise StorageError(
                f"run builder needs strictly increasing keys "
                f"({key} after {last_key})"
            )
        last_key = key
        record = encode_entry(key, seq, payload)
        if page is not None:
            # ``insert`` itself reports a full page: one header decode
            # per entry instead of a ``can_fit`` probe before each.
            try:
                page.insert(record)
            except PageFullError:
                close_page()
                page = None
        if page is None:
            pinned = pool.pin_new(file_id)
            current_id = pinned.page_id
            page = SlottedPage.format_empty(pinned.data)
            page_ids.append(current_id)
            fences.append(key)
            page.insert(record)
        seqs.append(seq)
        if payload is None:
            tombstones += 1
            tombstone_seqs.append(seq)
    if page is not None:
        close_page()

    for tomb in ranges:
        seqs.append(tomb.seq)
        tombstone_seqs.append(tomb.seq)

    if not seqs:
        raise StorageError("refusing to build an empty run")

    lo_candidates = [fences[0]] if fences else []
    hi_candidates = [last_key] if last_key is not None else []
    lo_candidates += [tomb.lo for tomb in ranges]
    hi_candidates += [tomb.hi for tomb in ranges]
    key_min = min(lo_candidates)
    key_max = max(hi_candidates)
    if cover_lo is not None:
        key_min = min(key_min, cover_lo)
    if cover_hi is not None:
        key_max = max(key_max, cover_hi)

    return RunMeta(
        run_id=run_id,
        level=level,
        page_ids=tuple(page_ids),
        fences=tuple(fences),
        key_min=key_min,
        key_max=key_max,
        seq_min=min(seqs),
        seq_max=max(seqs),
        entry_count=len(items),
        tombstones=tombstones,
        ranges=tuple(sorted(ranges, key=lambda t: (t.lo, t.hi, t.seq))),
        tombstone_seq_min=min(tombstone_seqs) if tombstone_seqs else -1,
    )


def _entry_slots(data: bytearray) -> Tuple[array[int], array[int]]:
    """Offsets and lengths of a run page's entries, in key order."""
    offsets, lengths = SlottedPage(data).directory()
    if 0 in lengths:
        raise StorageError("run page holds a deleted slot; runs are immutable")
    return offsets, lengths


def run_get(
    pool: BufferPool, meta: RunMeta, key: int
) -> Tuple[Optional[Resolution], int]:
    """Resolve ``key`` against one run: ``(resolution, pages_read)``.

    The fence index narrows a point lookup to at most one page read;
    the run's range tombstones compete with the point entry by
    sequence number, exactly like memtable resolution.  The host
    bisects the entry headers in the pinned frame, but the CPU charge
    is the position at which a linear scan of the page would stop.
    """
    best: Optional[Resolution] = None
    for tomb in meta.ranges:
        if tomb.covers(key) and (best is None or tomb.seq > best[0]):
            best = (tomb.seq, None)
    pages_read = 0
    if meta.fences and key >= meta.fences[0]:
        slot = bisect_right(meta.fences, key) - 1
        page_id = meta.page_ids[slot]
        pages_read = 1
        with pool.pin(page_id) as pinned:
            data = pinned.data
            offsets, lengths = _entry_slots(data)
            count = len(offsets)
            lo, hi = 0, count
            while lo < hi:  # first entry with a key >= ``key``
                mid = (lo + hi) // 2
                if ENTRY.unpack_from(data, offsets[mid])[2] < key:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < count:
                entry_key, seq, payload = decode_entry(
                    data, offsets[lo], lengths[lo]
                )
                if entry_key == key and (best is None or seq > best[0]):
                    best = (seq, payload)
            pool.disk.charge_cpu_records(min(lo + 1, count))
    return best, pages_read


def run_iter(pool: BufferPool, meta: RunMeta) -> Iterator[Item]:
    """Yield every point entry of a run in key order (sequential reads)."""
    for page_id in meta.page_ids:
        with pool.pin(page_id) as pinned:
            offsets, lengths = _entry_slots(pinned.data)
            view = bytes(pinned.data)
        pool.disk.charge_cpu_records(len(offsets))
        for offset, length in zip(offsets, lengths):
            yield decode_entry(view, offset, length)
