"""Simulated disk with an explicit service-time model.

The paper's experiments ran on a SUN Ultra 10 with a 7200 rpm Seagate
Medialist Pro disk and Solaris direct I/O.  What separates the traditional
(horizontal) delete from the vertical bulk delete is almost entirely the
*pattern* of page accesses: per-record root-to-leaf traversals cause one
or more random I/Os per deleted record, while the bulk-delete plans scan
leaf levels and heap files sequentially.

This module substitutes the physical disk with an in-memory page store
that charges simulated time per access:

* a *random* access costs ``seek + rotational latency + transfer``,
* a *sequential* access (the next page of the same file as the previous
  access to that file) costs ``transfer`` only,
* a *near-sequential* access (within a small forward window on the same
  file, approximating track buffers / prefetch) costs a short seek plus
  the transfer.

Sequentiality is tracked **per file and per direction** (reads and
writes separately): modern disks and file systems hide short
interleavings between sequential streams behind track buffers, write
caches and request scheduling, and the paper's prototype used chained
I/O for exactly this purpose.  Tracking one global head position
instead would make *every* workload look random — e.g. a buffer pool's
deferred write-backs would destroy the sequentiality of the scan that
dirtied the pages — and erase the effect the paper measures.

The disk also keeps complete counters (random/sequential/near reads and
writes, per-file breakdowns) so tests can assert on access *patterns*,
not just on simulated time.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from operator import attrgetter, sub
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    ChecksumMismatch,
    QuarantinedPage,
    StorageError,
    TransientReadError,
)
from repro.storage.page_formats import page_checksum

DEFAULT_PAGE_SIZE = 4096

#: Forward distance (in pages, within one file) still billed as
#: near-sequential rather than random.  Approximates track-buffer reach.
NEAR_SEQUENTIAL_WINDOW = 8


@dataclass(frozen=True)
class DiskParameters:
    """Service-time model of a late-1990s 7200 rpm disk (in milliseconds).

    Defaults approximate the Seagate Medialist Pro used in the paper:
    ~8.5 ms average seek and 4.15 ms half-rotation at 7200 rpm.  The
    per-page transfer cost is the *effective* page-at-a-time throughput
    through a late-90s UNIX file system (~2 MB/s, i.e. ~2 ms per 4 KiB
    page), not the raw media rate: the paper's own bulk-delete time
    (24.87 min for ~129k pages read + written back) implies exactly this
    effective rate, and calibrating to it reproduces the paper's
    absolute numbers, not just the shapes.
    """

    seek_ms: float = 8.5
    rotational_ms: float = 4.15
    transfer_ms_per_kb: float = 0.5
    near_seek_ms: float = 1.0

    def __deepcopy__(self, memo: dict) -> "DiskParameters":
        return self  # frozen: a fork shares it

    def transfer_ms(self, page_size: int) -> float:
        return self.transfer_ms_per_kb * (page_size / 1024.0)

    def random_ms(self, page_size: int) -> float:
        return self.seek_ms + self.rotational_ms + self.transfer_ms(page_size)

    def sequential_ms(self, page_size: int) -> float:
        return self.transfer_ms(page_size)

    def near_sequential_ms(self, page_size: int) -> float:
        return self.near_seek_ms + self.transfer_ms(page_size)


class SimClock:
    """A simulated clock advanced by disk (and optional CPU) charges."""

    def __init__(self) -> None:
        self._now_ms = 0.0

    def __deepcopy__(self, memo: dict) -> "SimClock":
        clone = memo[id(self)] = SimClock()
        clone._now_ms = self._now_ms
        return clone

    @property
    def now_ms(self) -> float:
        return self._now_ms

    @property
    def now_seconds(self) -> float:
        return self._now_ms / 1000.0

    def advance_ms(self, delta_ms: float) -> None:
        if delta_ms < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now_ms += delta_ms

    def rewind_to(self, target_ms: float) -> None:
        """Reposition the clock to an earlier instant.

        Reserved for the lane scheduler (:mod:`repro.parallel`), which
        executes concurrent lanes one after another in host time and
        rewinds between them so each lane's charges land at the right
        simulated offset.  Everything else must only :meth:`advance_ms`
        — the ``code/clock-rewind`` lint rule enforces this.
        """
        if target_ms < 0:
            raise ValueError("cannot rewind the clock below zero")
        if target_ms > self._now_ms:
            raise ValueError(
                "rewind_to cannot move the clock forward; use advance_ms"
            )
        self._now_ms = target_ms

    def reset(self) -> None:
        self._now_ms = 0.0


@dataclass
class DiskStats:
    """Access counters kept by the simulated disk."""

    reads: int = 0
    writes: int = 0
    random_reads: int = 0
    sequential_reads: int = 0
    near_sequential_reads: int = 0
    random_writes: int = 0
    sequential_writes: int = 0
    near_sequential_writes: int = 0
    pages_allocated: int = 0
    pages_freed: int = 0
    io_time_ms: float = 0.0

    def snapshot(self) -> "DiskStats":
        return DiskStats(*_declared(self))

    def delta_since(self, earlier: "DiskStats") -> "DiskStats":
        return DiskStats(*map(sub, _declared(self), _declared(earlier)))

    def merge(self, other: "DiskStats") -> "DiskStats":
        """Add ``other``'s counters into this object (in place).

        Snapshot/delta/merge all read the *declared* dataclass fields
        (their names resolved once, in ``_STATS_FIELDS``), never
        ``vars()``: a stray attribute poked onto one instance must not
        leak into (or crash) an aggregation.  Lane rollups rely on this
        being a pure field-wise sum — each access is classified and
        costed exactly once at the device (:meth:`SimulatedDisk._charge`)
        and tallied identically into the global and the per-lane sinks,
        so merging lane deltas can never double-count a chained-I/O
        discount.
        """
        for name, mine, theirs in zip(
            _STATS_FIELDS, _declared(self), _declared(other)
        ):
            setattr(self, name, mine + theirs)
        return self

    @classmethod
    def merged(cls, parts: Iterable["DiskStats"]) -> "DiskStats":
        """Field-wise sum of several stats deltas (lane rollup)."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    @property
    def random_ios(self) -> int:
        return self.random_reads + self.random_writes

    @property
    def total_ios(self) -> int:
        return self.reads + self.writes


#: ``DiskStats``' declared field names, in declaration order (the
#: order its positional constructor takes them).
_STATS_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(DiskStats))
#: One C-level read of every declared field, as a tuple.
_declared = attrgetter(*_STATS_FIELDS)


class SimulatedDisk:
    """In-memory page store that charges simulated I/O time.

    Pages are grouped into *files* (one per table, index, sort run, log,
    ...).  Allocation within a file is contiguous whenever possible so
    that scans of freshly built structures are billed as sequential.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        parameters: Optional[DiskParameters] = None,
        clock: Optional[SimClock] = None,
        retain_freed: bool = True,
        verify_reads: bool = True,
    ) -> None:
        if page_size < 128:
            raise ValueError("page_size must be at least 128 bytes")
        self.page_size = page_size
        self.parameters = parameters or DiskParameters()
        self.clock = clock or SimClock()
        #: With ``retain_freed`` (the realistic default) a freed page's
        #: bytes stay readable until the id would be reused — crash
        #: recovery may legitimately follow stale pointers into freed
        #: pages, exactly as on a real disk.  ``retain_freed=False``
        #: turns any access to a freed page into an error (strict mode
        #: for storage-layer unit tests).
        self.retain_freed = retain_freed
        self.stats = DiskStats()
        #: Observability hook (:class:`repro.obs.observer.Observer`).
        #: ``None`` (the default) keeps every access on the fast path —
        #: a single attribute test and no metric objects at all.
        self.observer: Optional[object] = None
        #: Fault-injection hook (:class:`repro.faults.FaultInjector`).
        #: Same ``None``-is-fast-path contract as ``observer``.
        self.fault_injector: Optional[object] = None
        #: Per-lane counters, accumulated only while a lane is active
        #: (see :meth:`begin_lane`).  The lane scheduler reads deltas of
        #: these to attribute a parallel region's I/O to its lanes.
        self.lane_stats: Dict[int, DiskStats] = {}
        self._active_lane: Optional[int] = None
        self._contended = False
        #: Verify every :meth:`read_page` against the stored checksum
        #: (the realistic default).  ``verify_reads=False`` restores
        #: the trusting pre-checksum read path; the media property test
        #: pins the two bit-identical when no fault is installed.
        self.verify_reads = verify_reads
        #: Out-of-band per-page CRCs (a disk's per-sector ECC lives
        #: next to the data, not inside it).  Stamped with the checksum
        #: of the *intended* image on every write — so a torn commit
        #: (half new, half old) mismatches on the next read — and on
        #: allocation (zero page).
        self.checksums: Dict[int, int] = {}
        #: Pages whose repair failed; reads and writes raise
        #: :class:`~repro.errors.QuarantinedPage` until
        #: :meth:`restore_page` replaces the media.
        self.quarantined: set = set()
        self._zero_checksum = page_checksum(bytes(page_size))
        self._pages: Dict[int, bytes] = {}
        self._freed_ids: set = set()
        self._next_page_id = 1
        self._file_of_page: Dict[int, int] = {}
        self._next_file_id = 1
        # (file id, is_write) -> last page id accessed in that stream
        self._last_access: Dict[Tuple[int, bool], int] = {}

    def __deepcopy__(self, memo: dict) -> "SimulatedDisk":
        """The fork's copy (see :meth:`Database.fork
        <repro.catalog.database.Database.fork>`): every page image is an
        immutable ``bytes`` and is shared; the maps and sets around
        them are copied flat, the clock and hooks through ``memo``."""
        clone = memo[id(self)] = object.__new__(type(self))
        clone.__dict__.update(
            self.__dict__,
            clock=copy.deepcopy(self.clock, memo),
            stats=self.stats.snapshot(),
            observer=copy.deepcopy(self.observer, memo),
            fault_injector=copy.deepcopy(self.fault_injector, memo),
            lane_stats={
                lane: stats.snapshot()
                for lane, stats in self.lane_stats.items()
            },
            checksums=dict(self.checksums),
            quarantined=set(self.quarantined),
            _pages=dict(self._pages),
            _freed_ids=set(self._freed_ids),
            _file_of_page=dict(self._file_of_page),
            _last_access=dict(self._last_access),
        )
        return clone

    # ------------------------------------------------------------------
    # files and allocation
    # ------------------------------------------------------------------
    def create_file(self) -> int:
        """Register a new file and return its id."""
        file_id = self._next_file_id
        self._next_file_id += 1
        return file_id

    def allocate_page(self, file_id: int) -> int:
        """Allocate one zeroed page inside ``file_id`` and return its id."""
        page_id = self._next_page_id
        self._next_page_id += 1
        self._pages[page_id] = bytes(self.page_size)
        self.checksums[page_id] = self._zero_checksum
        self._file_of_page[page_id] = file_id
        self.stats.pages_allocated += 1
        if self._active_lane is not None:
            self.lane_stats[self._active_lane].pages_allocated += 1
        if self.observer is not None:
            self.observer.on_page_alloc(file_id)  # type: ignore[attr-defined]
        return page_id

    def allocate_pages(self, file_id: int, count: int) -> List[int]:
        """Allocate ``count`` contiguous pages inside ``file_id``."""
        return [self.allocate_page(file_id) for _ in range(count)]

    def free_page(self, page_id: int) -> None:
        """Release a page.

        The stale bytes stay on the medium either way (that is what a
        real disk does); the modes differ in what an *access* of the
        freed id means.  Default mode tolerates it — crash recovery may
        legitimately follow stale pointers into freed pages, and a
        double free is ignored.  Strict mode turns any later
        ``read_page``/``write_page`` (and a double free) into a
        :class:`StorageError` via the ``allow_freed`` branch of
        :meth:`_require_page`.
        """
        if page_id in self._freed_ids and self.retain_freed:
            return
        self._require_page(page_id, allow_freed=False)
        self._freed_ids.add(page_id)
        self.stats.pages_freed += 1
        if self._active_lane is not None:
            self.lane_stats[self._active_lane].pages_freed += 1
        if self.observer is not None:
            self.observer.on_page_free(page_id)  # type: ignore[attr-defined]

    def page_exists(self, page_id: int) -> bool:
        return page_id in self._pages and page_id not in self._freed_ids

    def file_of(self, page_id: int) -> int:
        self._require_page(page_id)
        return self._file_of_page[page_id]

    @property
    def num_pages(self) -> int:
        return len(self._pages) - len(self._freed_ids)

    @property
    def size_bytes(self) -> int:
        return self.num_pages * self.page_size

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read_page(self, page_id: int) -> bytes:
        self._require_page(page_id, allow_freed=self.retain_freed)
        self._fail_if_quarantined(page_id)
        # The attempt is charged before it can fail: a read the medium
        # rejects still moved the head and spun the platter, which is
        # what makes retry storms visible in the simulated time.
        self._charge(page_id, is_write=False)
        injector = self.fault_injector
        if injector is not None and injector.on_page_read(  # type: ignore[attr-defined]
            page_id
        ):
            if self.observer is not None:
                self.observer.on_transient_read_error(  # type: ignore[attr-defined]
                    page_id
                )
            raise TransientReadError(
                f"transient read error on page {page_id}", page_id=page_id
            )
        data = self._pages[page_id]
        if self.verify_reads:
            stored = self.checksums.get(page_id)
            if stored is not None and page_checksum(data) != stored:
                if self.observer is not None:
                    self.observer.on_checksum_mismatch(  # type: ignore[attr-defined]
                        page_id
                    )
                raise ChecksumMismatch(
                    f"page {page_id} failed checksum verification",
                    page_id=page_id,
                )
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        self._require_page(page_id, allow_freed=self.retain_freed)
        self._fail_if_quarantined(page_id)
        if len(data) != self.page_size:
            raise StorageError(
                f"page write of {len(data)} bytes to a "
                f"{self.page_size}-byte page"
            )
        self._charge(page_id, is_write=True)
        # Stamp the checksum of the *intended* image before the
        # injector decides what actually commits: if only half of the
        # new image lands (a torn write), the durable bytes no longer
        # match the stamp and the next read detects it — no side
        # channel needed.
        self.checksums[page_id] = page_checksum(data)
        injector = self.fault_injector
        if injector is None:
            self._store_page(page_id, data)
        else:
            injector.on_page_write(  # type: ignore[attr-defined]
                page_id,
                self._pages[page_id],
                bytes(data),
                lambda image: self._store_page(page_id, image),
            )

    def durable_image(self, page_id: int) -> bytes:
        """The page's current durable bytes, without charging any I/O.

        For inspection and full-page-image capture only — normal reads
        go through :meth:`read_page`.
        """
        self._require_page(page_id)
        return self._pages[page_id]

    def _store_page(self, page_id: int, data: bytes) -> None:
        self._pages[page_id] = bytes(data)

    # ------------------------------------------------------------------
    # media: checksum verification, corruption, quarantine
    # ------------------------------------------------------------------
    def page_ids(self) -> List[int]:
        """All live (never-freed) page ids, sorted.

        Sorted order makes a full sweep — the scrubber's — bill mostly
        sequential accesses, exactly like a real sequential scrub pass.
        """
        return sorted(pid for pid in self._pages if pid not in self._freed_ids)

    def freed_page_ids(self) -> List[int]:
        """Freed-but-retained page ids, sorted.

        With ``retain_freed`` (the default) a freed page's last bytes
        stay readable until something overwrites them — the surface the
        retention auditor must sweep and the erase pass must shred.
        With ``retain_freed=False`` the bytes are gone and this is the
        set of ids whose reads now fail.
        """
        return sorted(self._freed_ids)

    def verify_page(self, page_id: int) -> bool:
        """Whether the durable bytes match the stored checksum.

        Uncharged inspection (like :meth:`durable_image`): restart's
        corruption scan uses it to *find* damage; actually reading the
        page goes through :meth:`read_page` and is billed normally.
        """
        self._require_page(page_id)
        stored = self.checksums.get(page_id)
        return stored is None or page_checksum(self._pages[page_id]) == stored

    def corrupt_page_ids(self) -> List[int]:
        """Live, unquarantined pages whose bytes fail their checksum.

        This is what restart's media scan runs over: every torn write
        and every at-rest corruption shows up here, with no tracking
        side channel — the checksum *is* the detector.
        """
        return [
            pid
            for pid in self.page_ids()
            if pid not in self.quarantined and not self.verify_page(pid)
        ]

    def corrupt_page(self, page_id: int, data: bytes) -> None:
        """Overwrite durable bytes *without* restamping the checksum.

        The fault-injection surface (latent sector corruption, stuck
        bits): the medium decayed underneath the stored CRC, so the
        next verified read fails.  Uncharged — bit rot is not an I/O.
        """
        self._require_page(page_id)
        if len(data) != self.page_size:
            raise StorageError(
                f"corruption image of {len(data)} bytes for a "
                f"{self.page_size}-byte page"
            )
        self._pages[page_id] = bytes(data)

    def quarantine_page(self, page_id: int) -> None:
        """Refuse further reads/writes of ``page_id`` until restored.

        The media layer quarantines a page when repair failed; any
        later access raises :class:`~repro.errors.QuarantinedPage`
        instead of returning unverified bytes.
        """
        self._require_page(page_id)
        self.quarantined.add(page_id)
        if self.observer is not None:
            self.observer.on_page_quarantined(  # type: ignore[attr-defined]
                page_id
            )

    def restore_page(self, page_id: int, data: bytes) -> None:
        """Replace a page's media with a known-good image (offline).

        Lifts any quarantine and restamps the checksum: this is the
        operator swapping the bad sector for a backup copy, not a
        normal write — it bypasses the fault injector and charges
        nothing.
        """
        self._require_page(page_id)
        if len(data) != self.page_size:
            raise StorageError(
                f"restore image of {len(data)} bytes for a "
                f"{self.page_size}-byte page"
            )
        self.quarantined.discard(page_id)
        self.checksums[page_id] = page_checksum(data)
        self._pages[page_id] = bytes(data)

    def _fail_if_quarantined(self, page_id: int) -> None:
        if page_id in self.quarantined:
            raise QuarantinedPage(
                f"page {page_id} is quarantined; restore_page() it from "
                "a backup image before accessing it again",
                page_id=page_id,
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_page(self, page_id: int, allow_freed: bool = True) -> None:
        if page_id not in self._pages:
            raise StorageError(f"page {page_id} does not exist")
        if page_id in self._freed_ids and not allow_freed:
            raise StorageError(f"page {page_id} has been freed")

    # ------------------------------------------------------------------
    # lanes (multi-disk / contended parallel execution)
    # ------------------------------------------------------------------
    def begin_lane(self, lane_id: int, contended: bool = False) -> None:
        """Attribute subsequent accesses to ``lane_id``.

        With ``contended=True`` the lane shares one physical device
        with the other lanes of its parallel region: interleaved
        requests move the head away between any two accesses of a
        stream, so every access is classified (and billed) as random —
        the sequentiality discounts the paper's bulk delete lives on
        are lost.  Dedicated lanes (the default) model one spindle per
        lane and keep the normal per-stream classification.

        Lanes never nest; the scheduler brackets exactly one task at a
        time between :meth:`begin_lane` and :meth:`end_lane`.
        """
        if self._active_lane is not None:
            raise StorageError(
                f"lane {self._active_lane} is still active; lanes do not nest"
            )
        self._active_lane = lane_id
        self._contended = contended
        self.lane_stats.setdefault(lane_id, DiskStats())

    @property
    def active_lane(self) -> Optional[int]:
        """The lane accesses are attributed to, or ``None``."""
        return self._active_lane

    def end_lane(self) -> None:
        """Stop attributing accesses to the active lane."""
        self._active_lane = None
        self._contended = False

    def _charge(self, page_id: int, is_write: bool) -> None:
        file_id = self._file_of_page[page_id]
        last = self._last_access.get((file_id, is_write))
        page_size = self.page_size
        params = self.parameters
        if self._contended:
            # A shared device interleaves the lanes' request streams:
            # between two accesses of one stream the head has serviced
            # other lanes, so every access pays the full random cost.
            kind = "random"
            cost = params.random_ms(page_size)
        elif last is not None and page_id == last:
            # Re-access of the same page: rotation + transfer, no seek.
            kind = "near_sequential"
            cost = params.near_sequential_ms(page_size)
        elif last is not None and last < page_id <= last + 1:
            kind = "sequential"
            cost = params.sequential_ms(page_size)
        elif last is not None and last < page_id <= last + NEAR_SEQUENTIAL_WINDOW:
            kind = "near_sequential"
            cost = params.near_sequential_ms(page_size)
        else:
            kind = "random"
            cost = params.random_ms(page_size)
        self._last_access[(file_id, is_write)] = page_id
        self.clock.advance_ms(cost)
        # One classification, tallied identically into every sink: the
        # global counters and the active lane's see the same (kind,
        # cost), so rolling lane deltas up can never double-count (or
        # drop) a chained-I/O discount at a lane boundary.
        self._tally(self.stats, kind, is_write, cost)
        if self._active_lane is not None:
            self._tally(
                self.lane_stats[self._active_lane], kind, is_write, cost
            )
        if self.observer is not None:
            self.observer.on_disk_access(  # type: ignore[attr-defined]
                file_id, kind, is_write, cost
            )

    @staticmethod
    def _tally(
        stats: DiskStats, kind: str, is_write: bool, cost: float
    ) -> None:
        stats.io_time_ms += cost
        if is_write:
            stats.writes += 1
            setattr(
                stats,
                f"{kind}_writes",
                getattr(stats, f"{kind}_writes") + 1,
            )
        else:
            stats.reads += 1
            setattr(
                stats,
                f"{kind}_reads",
                getattr(stats, f"{kind}_reads") + 1,
            )

    # ------------------------------------------------------------------
    # CPU charges
    # ------------------------------------------------------------------
    #: Simulated CPU time per record comparison/move, in milliseconds.
    #: Chosen so sorting costs are visible but small next to I/O, as on
    #: the paper's 333 MHz UltraSPARC.
    CPU_RECORD_MS = 0.002

    def charge_cpu_records(self, record_count: int, factor: float = 1.0) -> None:
        """Advance the clock for CPU work over ``record_count`` records."""
        if record_count <= 0:
            return
        cost = self.CPU_RECORD_MS * record_count * factor
        self.clock.advance_ms(cost)
        if self.observer is not None:
            self.observer.on_cpu(cost)  # type: ignore[attr-defined]
