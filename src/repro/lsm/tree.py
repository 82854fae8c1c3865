"""The delete-aware leveled LSM tree on the simulated cost model.

Structure
---------
Writes land in a :class:`~repro.lsm.memtable.Memtable` after being
logged to a forward-chained page log; a full memtable flushes to an
immutable level-0 run.  Level 0 holds overlapping runs in recency
order; levels 1..n hold key-disjoint runs.  A lookup resolves
memtable → L0 (newest first) → one run per deeper level, stopping at
the first fact (the level invariant guarantees anything at level *i*
is newer than the same key at level *j > i*).

Durability
----------
Three protocols compose, all on ordinary buffer-pool page writes so
the crash sweep can cut between any two durable events:

* **Log**: each log page stores its pre-allocated successor's id in
  record 0, so replay needs no per-file page directory.  The log is
  *pure append*: every operation lands on a fresh page (one flush per
  append, same write count as a tail rewrite), so no page holding an
  acknowledged record is ever written again — a torn write can only
  destroy the very operation that was being acknowledged, never an
  earlier one.  A torn or missing tail is detected by the disk's
  out-of-band checksum and recovery re-logs the surviving memtable
  into a fresh chain before anything else happens.
* **Manifest**: run metadata (pages, fences, covering ranges, range
  tombstones) is serialized into a fresh chain of manifest pages on
  every commit — data pages first, manifest pages second.
* **Superblock**: two slots, written alternately with a version
  counter.  Recovery reads both, discards any that fail their
  checksum or magic, and adopts the highest version — a torn
  superblock write can only destroy the slot being replaced.

Old log/manifest/run pages are freed only *after* the superblock
flip, so a crash at any point leaves one complete, reachable state.

Delete-awareness (Lethe's FADE, PAPERS.md)
------------------------------------------
Bulk deletes write point/range tombstones; compaction is what turns
them into reclaimed space and restored lookup speed.  Beyond the size
triggers of plain leveled compaction, :meth:`LsmTree
.delete_aware_compactions` scores runs by tombstone *density* and
tombstone *age* (sequence distance) and compacts the worst offenders
first, dropping tombstones entirely once they reach the deepest data.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import MediaError, RecoveryError, StorageError
from repro.lsm.memtable import Memtable, RangeTombstone, Resolution
from repro.lsm.sstable import (
    ENTRY,
    Item,
    RunMeta,
    build_run,
    run_get,
    run_iter,
)
from repro.obs.trace import maybe_span
from repro.storage.buffer import BufferPool
from repro.storage.page_formats import HEADER_SIZE, SLOT_SIZE, SlottedPage

# ----------------------------------------------------------------------
# on-page formats
# ----------------------------------------------------------------------
#: Log records: point ops share the run-entry header, range deletes
#: add the second bound.
_LOG_POINT = struct.Struct("<bqq")   # kind, seq, key
_LOG_RANGE = struct.Struct("<bqqq")  # kind, seq, lo, hi
_LOG_PUT = 0
_LOG_DELETE = 1
_LOG_DELETE_RANGE = 2
#: Record 0 of every chained page (log and manifest): successor id.
_NEXT = struct.Struct("<q")

_SB = struct.Struct("<Iqqqqq")
_SB_MAGIC = 0x4C534D53  # "LSMS"
_MANIFEST_MAGIC = 0x4C534D4D  # "LSMM"
_MANIFEST_HEADER = struct.Struct("<Iq")
_MANIFEST_RUN = struct.Struct("<qqqqqqqqqII")


@dataclass(frozen=True)
class LsmConfig:
    """Tuning knobs; defaults suit the benchmark-scale tables."""

    #: Memtable facts (points + ranges) that trigger a flush.
    memtable_entries: int = 256
    #: L0 run count that triggers an L0 → L1 compaction.
    l0_runs: int = 4
    #: Target pages per compaction output run.
    run_pages: int = 8
    #: Run budget of level 1; level *i* holds ``level_runs *
    #: fanout**(i-1)`` runs before the size trigger fires.
    level_runs: int = 4
    fanout: int = 4
    #: FADE density trigger: tombstone facts per point entry.
    tombstone_density_trigger: float = 0.25
    #: FADE age trigger: sequence distance from the run's oldest
    #: tombstone to the present.
    tombstone_age_seqs: int = 4096
    #: Cap on compactions one ``delete_aware_compactions`` call runs.
    max_delete_compactions: int = 8


@dataclass
class LsmStats:
    """Operation counters kept by one tree (snapshot/delta like
    :class:`~repro.storage.disk.DiskStats`)."""

    puts: int = 0
    point_deletes: int = 0
    range_deletes: int = 0
    lookups: int = 0
    lookup_runs_probed: int = 0
    lookup_pages_read: int = 0
    flushes: int = 0
    flush_entries: int = 0
    flush_pages: int = 0
    compactions: int = 0
    compaction_pages_read: int = 0
    compaction_pages_written: int = 0
    tombstones_dropped: int = 0
    entries_superseded: int = 0
    log_appends: int = 0
    manifest_commits: int = 0
    manifest_pages: int = 0

    def snapshot(self) -> "LsmStats":
        return LsmStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def delta_since(self, earlier: "LsmStats") -> "LsmStats":
        return LsmStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    @property
    def page_writes(self) -> int:
        """Physical page writes the counted operations performed.

        The identity the benchmark reconciles against the disk's own
        write counter: one fresh page per log append, one new log-chain
        head per flush, the flush and compaction output run pages, the
        manifest pages, and one superblock write per commit.
        """
        return (
            self.log_appends
            + self.flushes
            + self.flush_pages
            + self.compaction_pages_written
            + self.manifest_pages
            + self.manifest_commits
        )


class LsmTree:
    """One LSM-backed table: memtable + log + leveled immutable runs."""

    def __init__(
        self,
        pool: BufferPool,
        name: str = "lsm",
        config: Optional[LsmConfig] = None,
    ) -> None:
        self.pool = pool
        self.disk = pool.disk
        self.name = name
        self.config = config or LsmConfig()
        self.stats = LsmStats()

        self.data_file = self.disk.create_file()
        self.log_file = self.disk.create_file()
        self.meta_file = self.disk.create_file()
        self._sb_ids = (
            self.disk.allocate_page(self.meta_file),
            self.disk.allocate_page(self.meta_file),
        )
        self.memtable = Memtable()
        #: ``levels[0]`` is newest-first and may overlap; deeper levels
        #: are key-disjoint, sorted by ``key_min``.
        self.levels: List[List[RunMeta]] = [[]]
        self.flushed_seq = 0
        self._next_seq = 1
        self._next_run_id = 1
        self._version = 0
        self._manifest_pages: List[int] = []
        self._log_pages: List[int] = []
        self._log_tail_next = 0
        self._new_log_chain()
        self._commit()

    @property
    def observer(self) -> Optional[Any]:
        """The observer attached to the disk, like every storage layer."""
        return self.disk.observer

    # ------------------------------------------------------------------
    # identity / recovery handle
    # ------------------------------------------------------------------
    @property
    def handle(self) -> Tuple[int, int, int, int, int]:
        """Everything :meth:`recover` needs to find the tree again:
        ``(data_file, log_file, meta_file, sb0, sb1)``."""
        return (
            self.data_file,
            self.log_file,
            self.meta_file,
            self._sb_ids[0],
            self._sb_ids[1],
        )

    # ------------------------------------------------------------------
    # public mutation API
    # ------------------------------------------------------------------
    def put(self, key: int, payload: bytes) -> None:
        """Insert or overwrite one row (upsert semantics)."""
        seq = self._take_seq()
        self._log_append(_LOG_POINT.pack(_LOG_PUT, seq, key) + payload)
        self.memtable.put(seq, key, payload)
        self.stats.puts += 1
        self._maybe_flush()

    def delete(self, key: int) -> None:
        """Write one point tombstone (no data page is touched)."""
        seq = self._take_seq()
        self._log_append(_LOG_POINT.pack(_LOG_DELETE, seq, key))
        self.memtable.delete(seq, key)
        self.stats.point_deletes += 1
        if self.observer is not None:
            self.observer.on_tombstone_write("point")
        self._maybe_flush()

    def delete_range(self, lo: int, hi: int) -> None:
        """Write one range tombstone covering ``[lo, hi]``."""
        seq = self._take_seq()
        self._log_append(_LOG_RANGE.pack(_LOG_DELETE_RANGE, seq, lo, hi))
        self.memtable.delete_range(seq, lo, hi)
        self.stats.range_deletes += 1
        if self.observer is not None:
            self.observer.on_tombstone_write("range")
        self._maybe_flush()

    def _take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # ------------------------------------------------------------------
    # public read API
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[bytes]:
        """Newest payload for ``key``, or ``None`` (absent or deleted)."""
        self.stats.lookups += 1
        runs_probed = 0
        pages_read = 0
        best: Optional[Resolution] = self.memtable.resolve(key)
        if best is None:
            for meta in self.levels[0]:
                if not meta.covers(key):
                    continue
                runs_probed += 1
                best, pages = run_get(self.pool, meta, key)
                pages_read += pages
                if best is not None:
                    break
        if best is None:
            for runs in self.levels[1:]:
                meta = self._disjoint_covering(runs, key)
                if meta is None:
                    continue
                runs_probed += 1
                best, pages = run_get(self.pool, meta, key)
                pages_read += pages
                if best is not None:
                    break
        self.stats.lookup_runs_probed += runs_probed
        self.stats.lookup_pages_read += pages_read
        if self.observer is not None:
            self.observer.on_lsm_lookup(runs_probed, pages_read)
        if best is None:
            return None
        return best[1]

    @staticmethod
    def _disjoint_covering(
        runs: Sequence[RunMeta], key: int
    ) -> Optional[RunMeta]:
        if not runs:
            return None
        idx = bisect_right([r.key_min for r in runs], key) - 1
        if idx < 0:
            return None
        meta = runs[idx]
        return meta if key <= meta.key_max else None

    def scan(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(key, payload)`` for every live row, in key order."""
        resolved: Dict[int, Resolution] = {}
        ranges: List[RangeTombstone] = list(self.memtable.ranges)
        for runs in self.levels:
            for meta in runs:
                ranges.extend(meta.ranges)
                for key, seq, payload in run_iter(self.pool, meta):
                    known = resolved.get(key)
                    if known is None or seq > known[0]:
                        resolved[key] = (seq, payload)
        for key, fact in self.memtable.entries.items():
            known = resolved.get(key)
            if known is None or fact[0] > known[0]:
                resolved[key] = fact
        self.disk.charge_cpu_records(len(resolved))
        for key in sorted(resolved):
            seq, payload = resolved[key]
            if payload is None:
                continue
            if any(t.masks(seq, key) for t in ranges):
                continue
            yield key, payload

    # ------------------------------------------------------------------
    # size estimates (pure arithmetic: the planner feed)
    # ------------------------------------------------------------------
    @property
    def approx_records(self) -> int:
        """Estimated live rows (exact after full compaction; an upper
        bound while superseded versions still await merging)."""
        total = self.memtable.approx_live
        for runs in self.levels:
            for meta in runs:
                total += meta.live_entries
        return total

    @property
    def data_pages(self) -> int:
        return sum(m.data_pages for runs in self.levels for m in runs)

    @property
    def run_count(self) -> int:
        return sum(len(runs) for runs in self.levels)

    @property
    def tombstone_count(self) -> int:
        points = sum(m.tombstones for runs in self.levels for m in runs)
        ranged = sum(len(m.ranges) for runs in self.levels for m in runs)
        mem = sum(
            1 for _, payload in self.memtable.entries.values()
            if payload is None
        )
        return points + ranged + mem + len(self.memtable.ranges)

    def level_shape(self) -> List[int]:
        """Run count per level (a compact explain/selfcheck view)."""
        return [len(runs) for runs in self.levels]

    # ------------------------------------------------------------------
    # flush
    # ------------------------------------------------------------------
    def _maybe_flush(self) -> None:
        if self.memtable.entry_count >= self.config.memtable_entries:
            self.flush_memtable()

    def flush_memtable(self) -> bool:
        """Flush the memtable to a new L0 run; ``False`` when empty.

        Order matters for crash safety: run pages first, then a fresh
        log chain, then the manifest/superblock commit; only then are
        the old log pages freed.
        """
        if self.memtable.is_empty:
            return False
        with maybe_span(
            self.observer, f"lsm-flush({self.name})",
            kind="lsm-flush", target=self.name,
        ) as span:
            items = self.memtable.sorted_items()
            meta = build_run(
                self.pool,
                self.data_file,
                self._take_run_id(),
                level=0,
                items=items,
                ranges=self.memtable.sorted_ranges(),
            )
            self.levels[0].insert(0, meta)
            self.flushed_seq = self.memtable.max_seq
            old_log = list(self._log_pages)
            if self._log_tail_next:
                old_log.append(self._log_tail_next)
            self._new_log_chain()
            self._commit()
            self._free_pages(old_log)
            self.memtable = Memtable()
            self.stats.flushes += 1
            self.stats.flush_entries += len(items)
            self.stats.flush_pages += meta.data_pages
            span.set(entries=len(items), pages=meta.data_pages)
            if self.observer is not None:
                self.observer.on_memtable_flush(len(items), meta.data_pages)
        self.maybe_compact()
        return True

    def _take_run_id(self) -> int:
        run_id = self._next_run_id
        self._next_run_id += 1
        return run_id

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _level_budget(self, level: int) -> int:
        return self.config.level_runs * self.config.fanout ** (level - 1)

    def maybe_compact(self) -> int:
        """Run size-triggered compactions until every level fits."""
        ran = 0
        for _ in range(64):
            if len(self.levels[0]) >= self.config.l0_runs:
                self.compact_once(0)
                ran += 1
                continue
            for level in range(1, len(self.levels)):
                if len(self.levels[level]) > self._level_budget(level):
                    self.compact_once(level)
                    ran += 1
                    break
            else:
                return ran
        return ran

    def delete_aware_compactions(self, max_compactions: Optional[int] = None) -> int:
        """FADE: compact the most tombstone-laden runs first.

        A run qualifies when its tombstone density or tombstone age
        crosses the configured trigger; the worst (by density, then
        age) is compacted each round.  A qualifying run at the deepest
        populated level is rewritten in place, which drops its
        tombstones outright.  Returns the number of compactions run.
        """
        budget = max_compactions or self.config.max_delete_compactions
        ran = 0
        while ran < budget:
            picked = self._pick_fade_victim()
            if picked is None:
                break
            level, meta = picked
            in_place = level > 0 and self._is_deepest(level)
            if level == 0:
                self.compact_once(0)
            else:
                self.compact_once(level, victim=meta, in_place=in_place)
            ran += 1
        return ran

    def _pick_fade_victim(self) -> Optional[Tuple[int, RunMeta]]:
        best: Optional[Tuple[float, float, int, RunMeta]] = None
        cfg = self.config
        for level, runs in enumerate(self.levels):
            for meta in runs:
                if meta.tombstone_seq_min < 0:
                    continue
                density = meta.tombstone_density
                age = float(self._next_seq - meta.tombstone_seq_min)
                if (
                    density < cfg.tombstone_density_trigger
                    and age < cfg.tombstone_age_seqs
                ):
                    continue
                score = (density, age, level, meta)
                if best is None or score[:2] > best[:2]:
                    best = score
        if best is None:
            return None
        return best[2], best[3]

    def _is_deepest(self, level: int) -> bool:
        return all(not self.levels[i] for i in range(level + 1, len(self.levels)))

    def compact_once(
        self,
        level: int,
        victim: Optional[RunMeta] = None,
        in_place: bool = False,
    ) -> int:
        """One compaction step; returns pages written.

        Level 0 compacts *all* its runs (they may overlap) plus every
        overlapping level-1 run into level 1.  A deeper level compacts
        one victim run plus the overlapping runs one level down — or,
        with ``in_place``, rewrites the victim at its own level (legal
        only at the deepest populated level, where dropped tombstones
        can no longer unmask anything).
        """
        if level == 0:
            inputs_here = list(self.levels[0])
        else:
            if victim is None:
                victim = self._pick_victim(level)
            inputs_here = [victim] if victim is not None else []
        if not inputs_here:
            return 0
        target = level if in_place else level + 1
        while len(self.levels) <= target:
            self.levels.append([])
        span_lo = min(m.key_min for m in inputs_here)
        span_hi = max(m.key_max for m in inputs_here)
        if in_place:
            overlapping: List[RunMeta] = []
        else:
            overlapping = [
                m
                for m in self.levels[target]
                if m.key_max >= span_lo and m.key_min <= span_hi
            ]
        inputs = inputs_here + overlapping
        to_bottom = all(
            not self.levels[i] for i in range(target + 1, len(self.levels))
        )

        with maybe_span(
            self.observer, f"lsm-compaction({self.name}:L{level})",
            kind="lsm-compaction", target=self.name,
        ) as span:
            pages_read = sum(m.data_pages for m in inputs)
            items: List[Item] = []
            ranges: List[RangeTombstone] = []
            for meta in inputs:
                ranges.extend(meta.ranges)
                items.extend(run_iter(self.pool, meta))
            merged, dropped_tombs, superseded = self._merge(
                items, ranges, to_bottom
            )
            keep_ranges: List[RangeTombstone] = []
            if to_bottom:
                dropped_tombs += len(ranges)
            else:
                keep_ranges = sorted(
                    ranges, key=lambda t: (t.lo, t.hi, t.seq)
                )
            cover_lo = min(
                [span_lo] + [m.key_min for m in overlapping]
            )
            cover_hi = max(
                [span_hi] + [m.key_max for m in overlapping]
            )
            outputs = self._build_outputs(
                merged, keep_ranges, target, cover_lo, cover_hi
            )
            pages_written = sum(m.data_pages for m in outputs)

            consumed = {m.run_id for m in inputs}
            if level == 0 and not in_place:
                self.levels[0] = []
            else:
                self.levels[level] = [
                    m for m in self.levels[level] if m.run_id not in consumed
                ]
            survivors = [
                m for m in self.levels[target] if m.run_id not in consumed
            ]
            survivors.extend(outputs)
            if target >= 1:
                survivors.sort(key=lambda m: m.key_min)
            self.levels[target] = survivors
            while len(self.levels) > 1 and not self.levels[-1]:
                self.levels.pop()
            self._commit()
            for meta in inputs:
                self._free_pages(meta.page_ids)

            self.stats.compactions += 1
            self.stats.compaction_pages_read += pages_read
            self.stats.compaction_pages_written += pages_written
            self.stats.tombstones_dropped += dropped_tombs
            self.stats.entries_superseded += superseded
            span.set(
                level=level,
                pages_read=pages_read,
                pages_written=pages_written,
                tombstones_dropped=dropped_tombs,
            )
            if self.observer is not None:
                self.observer.on_compaction(
                    level, pages_read, pages_written, dropped_tombs
                )
        return pages_written

    def _pick_victim(self, level: int) -> Optional[RunMeta]:
        runs = self.levels[level]
        if not runs:
            return None
        # Prefer the most tombstone-dense run (FADE's instinct applied
        # to the size trigger too); tie-break on the oldest data.
        return max(
            runs, key=lambda m: (m.tombstone_density, -m.seq_max)
        )

    def _merge(
        self,
        items: List[Item],
        ranges: List[RangeTombstone],
        to_bottom: bool,
    ) -> Tuple[List[Item], int, int]:
        """Keep the newest fact per key; apply range masking.

        Returns ``(survivors, tombstones_dropped, superseded)``.
        Tombstones drop only when compacting into the deepest data —
        anywhere else they must keep masking older versions below.
        """
        self.disk.charge_cpu_records(len(items), factor=2.0)
        items.sort(key=lambda item: (item[0], -item[1]))
        survivors: List[Item] = []
        dropped_tombs = 0
        superseded = 0
        i = 0
        while i < len(items):
            key, seq, payload = items[i]
            j = i + 1
            while j < len(items) and items[j][0] == key:
                j += 1
            superseded += j - i - 1
            i = j
            if any(t.masks(seq, key) for t in ranges):
                superseded += 1
                continue
            if payload is None:
                if to_bottom:
                    dropped_tombs += 1
                    continue
            survivors.append((key, seq, payload))
        return survivors, dropped_tombs, superseded

    def _build_outputs(
        self,
        merged: List[Item],
        keep_ranges: List[RangeTombstone],
        target: int,
        cover_lo: int,
        cover_hi: int,
    ) -> List[RunMeta]:
        """Split merged entries into runs partitioning the covering span.

        Chunk boundaries clip range tombstones so each output run's
        responsibility interval carries exactly the tombstone spans it
        covers — no key between two runs escapes masking.
        """
        if not merged and not keep_ranges:
            return []
        page_room = self.pool.disk.page_size - HEADER_SIZE
        run_room = self.config.run_pages * page_room
        chunks: List[List[Item]] = []
        current: List[Item] = []
        used = 0
        for item in merged:
            record_bytes = (
                ENTRY.size + len(item[2] or b"") + SLOT_SIZE
            )
            if current and used + record_bytes > run_room:
                chunks.append(current)
                current = []
                used = 0
            current.append(item)
            used += record_bytes
        if current:
            chunks.append(current)
        if not chunks:
            chunks = [[]]

        outputs: List[RunMeta] = []
        for idx, chunk in enumerate(chunks):
            lo = cover_lo if idx == 0 else chunk[0][0]
            if idx + 1 < len(chunks):
                hi = chunks[idx + 1][0][0] - 1
            else:
                hi = cover_hi
            clipped = []
            for tomb in keep_ranges:
                clip_lo = max(tomb.lo, lo)
                clip_hi = min(tomb.hi, hi)
                if clip_lo <= clip_hi:
                    clipped.append(
                        RangeTombstone(tomb.seq, clip_lo, clip_hi)
                    )
            if not chunk and not clipped:
                continue
            outputs.append(
                build_run(
                    self.pool,
                    self.data_file,
                    self._take_run_id(),
                    level=target,
                    items=chunk,
                    ranges=clipped,
                    cover_lo=lo,
                    cover_hi=hi,
                )
            )
        return outputs

    def bulk_load(self, rows: Iterable[Tuple[int, bytes]]) -> int:
        """Load rows straight into leveled runs: no log traffic, one
        manifest commit (the LSM counterpart of ``load_table`` +
        ``create_index(build_method="bulk")``).

        The runs land at the shallowest level whose run budget fits
        them — a big load goes straight to a deep level, so the first
        post-load flush does not trigger a rebalancing storm against a
        deliberately overfull level 1.  Only legal on an empty tree;
        duplicate keys keep the last occurrence (upsert order).
        Returns the number of rows loaded.
        """
        if self.run_count or not self.memtable.is_empty:
            raise StorageError("bulk_load needs an empty tree")
        latest: Dict[int, bytes] = {}
        for key, payload in rows:
            latest[key] = payload
        if not latest:
            return 0
        self.disk.charge_cpu_records(len(latest), factor=4.0)  # sort
        items: List[Item] = []
        for key in sorted(latest):
            items.append((key, self._take_seq(), latest[key]))
        outputs = self._build_outputs(
            items, [], 1, items[0][0], items[-1][0]
        )
        target = 1
        while self._level_budget(target) < len(outputs):
            target += 1
        if target != 1:
            outputs = [replace(m, level=target) for m in outputs]
        while len(self.levels) <= target:
            self.levels.append([])
        self.levels[target] = outputs
        self.flushed_seq = self._next_seq - 1
        self._commit()
        return len(items)

    def compact_all(self) -> int:
        """Compact until one key-disjoint, tombstone-free level remains.

        The benchmark's "fully reclaimed" measurement point and the
        vacuum entry point; returns the number of compactions run.
        """
        self.flush_memtable()
        ran = 0
        for _ in range(512):
            populated = [i for i, runs in enumerate(self.levels) if runs]
            if not populated:
                return ran
            top = populated[0]
            done = (
                len(populated) == 1
                and top >= 1
                and all(
                    m.tombstones == 0 and not m.ranges
                    for m in self.levels[top]
                )
            )
            if done:
                return ran
            self.compact_once(top)
            ran += 1
        raise StorageError("compact_all failed to converge")

    # ------------------------------------------------------------------
    # log
    # ------------------------------------------------------------------
    def _new_log_chain(self) -> None:
        head = self.disk.allocate_page(self.log_file)
        successor = self.disk.allocate_page(self.log_file)
        with self.pool.pin(head) as pinned:
            page = SlottedPage.format_empty(pinned.data)
            page.insert(_NEXT.pack(successor))
            pinned.mark_dirty()
        self.pool.flush_page(head)
        self._log_pages = [head]
        self._log_tail_next = successor

    def _log_append(self, op: bytes) -> None:
        # Pure append: the op lands on the pre-allocated (still empty)
        # tail page, which is given a successor of its own and is never
        # written again.  One flush per append — the same count a
        # tail-rewrite scheme pays — but a torn write can only take out
        # the op being acknowledged, never an earlier one.
        new_tail = self._log_tail_next
        successor = self.disk.allocate_page(self.log_file)
        with self.pool.pin(new_tail) as pinned:
            page = SlottedPage.format_empty(pinned.data)
            page.insert(_NEXT.pack(successor))
            page.insert(op)
            pinned.mark_dirty()
        self.pool.flush_page(new_tail)
        self._log_pages.append(new_tail)
        self._log_tail_next = successor
        self.stats.log_appends += 1

    @staticmethod
    def _decode_log_op(record: bytes) -> Tuple[int, int, int, int, Optional[bytes]]:
        """Decode one log record to ``(kind, seq, a, b, payload)``."""
        kind = record[0]
        if kind == _LOG_DELETE_RANGE:
            _, seq, lo, hi = _LOG_RANGE.unpack_from(record, 0)
            return kind, seq, lo, hi, None
        _, seq, key = _LOG_POINT.unpack_from(record, 0)
        if kind == _LOG_PUT:
            return kind, seq, key, 0, bytes(record[_LOG_POINT.size:])
        if kind == _LOG_DELETE:
            return kind, seq, key, 0, None
        raise RecoveryError(f"unknown log record kind {kind}")

    # ------------------------------------------------------------------
    # manifest + superblock commit
    # ------------------------------------------------------------------
    def _encode_manifest(self) -> bytes:
        parts = [b""]
        count = 0
        for level, runs in enumerate(self.levels):
            for meta in runs:
                count += 1
                parts.append(
                    _MANIFEST_RUN.pack(
                        meta.run_id,
                        level,
                        meta.entry_count,
                        meta.tombstones,
                        meta.seq_min,
                        meta.seq_max,
                        meta.tombstone_seq_min,
                        meta.key_min,
                        meta.key_max,
                        meta.data_pages,
                        len(meta.ranges),
                    )
                )
                parts.append(
                    struct.pack(f"<{meta.data_pages}q", *meta.page_ids)
                )
                parts.append(
                    struct.pack(f"<{len(meta.fences)}q", *meta.fences)
                )
                for tomb in meta.ranges:
                    parts.append(
                        struct.pack("<qqq", tomb.seq, tomb.lo, tomb.hi)
                    )
        parts[0] = _MANIFEST_HEADER.pack(_MANIFEST_MAGIC, count)
        return b"".join(parts)

    @staticmethod
    def _decode_manifest(blob: bytes) -> List[RunMeta]:
        magic, count = _MANIFEST_HEADER.unpack_from(blob, 0)
        if magic != _MANIFEST_MAGIC:
            raise RecoveryError("manifest magic mismatch")
        offset = _MANIFEST_HEADER.size
        runs: List[RunMeta] = []
        for _ in range(count):
            (
                run_id, level, entry_count, tombstones, seq_min, seq_max,
                tombstone_seq_min, key_min, key_max, n_pages, n_ranges,
            ) = _MANIFEST_RUN.unpack_from(blob, offset)
            offset += _MANIFEST_RUN.size
            page_ids = struct.unpack_from(f"<{n_pages}q", blob, offset)
            offset += 8 * n_pages
            fences = struct.unpack_from(f"<{n_pages}q", blob, offset)
            offset += 8 * n_pages
            ranges = []
            for _ in range(n_ranges):
                seq, lo, hi = struct.unpack_from("<qqq", blob, offset)
                offset += 24
                ranges.append(RangeTombstone(seq, lo, hi))
            runs.append(
                RunMeta(
                    run_id=run_id,
                    level=level,
                    page_ids=tuple(page_ids),
                    fences=tuple(fences),
                    key_min=key_min,
                    key_max=key_max,
                    seq_min=seq_min,
                    seq_max=seq_max,
                    entry_count=entry_count,
                    tombstones=tombstones,
                    ranges=tuple(ranges),
                    tombstone_seq_min=tombstone_seq_min,
                )
            )
        return runs

    def _commit(self) -> None:
        """Make the current levels durable: manifest pages, then the
        superblock flip, then (only then) free the replaced manifest."""
        blob = self._encode_manifest()
        capacity = (
            self.disk.page_size - HEADER_SIZE - 2 * SLOT_SIZE - _NEXT.size
        )
        fragments = [
            blob[i : i + capacity] for i in range(0, len(blob), capacity)
        ] or [b""]
        # Chain backwards so each page knows its successor when written;
        # allocation order still ascends, keeping the writes sequential.
        page_ids: List[int] = []
        next_id = 0
        for fragment in reversed(fragments):
            pinned = self.pool.pin_new(self.meta_file)
            page = SlottedPage.format_empty(pinned.data)
            page.insert(_NEXT.pack(next_id))
            if fragment:
                page.insert(fragment)
            next_id = pinned.page_id
            page_ids.append(pinned.page_id)
            self.pool.unpin(pinned.page_id, dirty=True)
            self.pool.flush_page(pinned.page_id)
        manifest_head = next_id

        self._version += 1
        slot = self._sb_ids[self._version % 2]
        with self.pool.pin(slot) as pinned:
            pinned.data[:] = bytes(self.disk.page_size)
            _SB.pack_into(
                pinned.data,
                0,
                _SB_MAGIC,
                self._version,
                self.flushed_seq,
                self._next_run_id,
                self._log_pages[0],
                manifest_head,
            )
            pinned.mark_dirty()
        self.pool.flush_page(slot)

        old_manifest = self._manifest_pages
        self._manifest_pages = list(reversed(page_ids))
        self._free_pages(old_manifest)
        self.stats.manifest_commits += 1
        self.stats.manifest_pages += len(fragments)

    def _free_pages(self, page_ids: Sequence[int]) -> None:
        for page_id in page_ids:
            self.pool.discard(page_id)
            self.disk.free_page(page_id)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        pool: BufferPool,
        handle: Tuple[int, int, int, int, int],
        config: Optional[LsmConfig] = None,
        name: str = "lsm",
    ) -> "LsmTree":
        """Rebuild a tree from its durable state after a crash.

        Reads both superblock slots (ignoring any that fail checksum
        or magic), adopts the highest version, decodes its manifest,
        and replays the log chain for operations newer than
        ``flushed_seq``.  A torn or missing log tail ends replay at
        the last intact page.  The surviving memtable is always
        re-logged into a fresh chain and committed, so recovery leaves
        a state that recovers to itself.
        """
        data_file, log_file, meta_file, sb0, sb1 = handle
        best: Optional[Tuple[int, int, int, int, int]] = None
        for slot in (sb0, sb1):
            try:
                with pool.pin(slot) as pinned:
                    raw = bytes(pinned.data[: _SB.size])
            except (StorageError, MediaError):
                continue
            magic, version, flushed_seq, next_run_id, log_head, manifest = (
                _SB.unpack(raw)
            )
            if magic != _SB_MAGIC:
                continue
            if best is None or version > best[0]:
                best = (version, flushed_seq, next_run_id, log_head, manifest)
        if best is None:
            raise RecoveryError(
                "no valid LSM superblock slot survives; the tree was "
                "never committed"
            )
        version, flushed_seq, next_run_id, log_head, manifest_head = best

        tree = cls.__new__(cls)
        tree.pool = pool
        tree.disk = pool.disk
        tree.name = name
        tree.config = config or LsmConfig()
        tree.stats = LsmStats()
        tree.data_file = data_file
        tree.log_file = log_file
        tree.meta_file = meta_file
        tree._sb_ids = (sb0, sb1)
        tree.memtable = Memtable()
        tree.flushed_seq = flushed_seq
        tree._next_run_id = next_run_id
        tree._version = version
        tree._log_pages = []
        tree._log_tail_next = 0

        # Manifest chain -> levels.
        tree._manifest_pages = []
        blob_parts: List[bytes] = []
        page_id = manifest_head
        while page_id:
            tree._manifest_pages.append(page_id)
            with pool.pin(page_id) as pinned:
                page = SlottedPage(pinned.data)
                records = [record for _, record in page.records()]
            if not records:
                raise RecoveryError(
                    f"manifest page {page_id} is empty"
                )
            page_id = _NEXT.unpack(records[0])[0]
            blob_parts.extend(records[1:])
        runs = cls._decode_manifest(b"".join(blob_parts))
        depth = max([r.level for r in runs], default=0)
        tree.levels = [[] for _ in range(depth + 1)]
        for meta in runs:
            tree.levels[meta.level].append(meta)
        for level in range(1, len(tree.levels)):
            tree.levels[level].sort(key=lambda m: m.key_min)

        # Log replay: ops newer than flushed_seq rebuild the memtable.
        max_seq = flushed_seq
        for meta in runs:
            max_seq = max(max_seq, meta.seq_max)
        old_log: List[int] = []
        page_id = log_head
        while page_id:
            try:
                with pool.pin(page_id) as pinned:
                    page = SlottedPage(pinned.data)
                    records = [record for _, record in page.records()]
            except (StorageError, MediaError):
                # Torn tail: everything beyond the last intact page is
                # gone; the freshly logged chain below re-anchors what
                # survived.
                break
            if not records:
                # The pre-allocated, never-formatted successor: the
                # clean end of the chain.
                old_log.append(page_id)
                break
            old_log.append(page_id)
            page_id = _NEXT.unpack(records[0])[0]
            for record in records[1:]:
                kind, seq, a, b, payload = cls._decode_log_op(record)
                max_seq = max(max_seq, seq)
                if seq <= flushed_seq:
                    continue
                if kind == _LOG_PUT:
                    assert payload is not None
                    tree.memtable.put(seq, a, payload)
                elif kind == _LOG_DELETE:
                    tree.memtable.delete(seq, a)
                else:
                    tree.memtable.delete_range(seq, a, b)
        tree._next_seq = max_seq + 1

        # Re-log the surviving memtable into a fresh chain and commit,
        # so a torn tail can never make an already-durable operation
        # less durable than it was.
        tree._new_log_chain()
        for key, seq, payload in tree.memtable.sorted_items():
            if payload is None:
                tree._log_append(_LOG_POINT.pack(_LOG_DELETE, seq, key))
            else:
                tree._log_append(
                    _LOG_POINT.pack(_LOG_PUT, seq, key) + payload
                )
        for tomb in tree.memtable.sorted_ranges():
            tree._log_append(
                _LOG_RANGE.pack(
                    _LOG_DELETE_RANGE, tomb.seq, tomb.lo, tomb.hi
                )
            )
        tree._commit()
        tree._free_pages(old_log)
        return tree

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def drop(self) -> None:
        """Free every page the tree owns (DROP TABLE)."""
        for runs in self.levels:
            for meta in runs:
                self._free_pages(meta.page_ids)
        self.levels = [[]]
        log_pages = list(self._log_pages)
        if self._log_tail_next:
            log_pages.append(self._log_tail_next)
        self._free_pages(log_pages)
        self._log_pages = []
        self._log_tail_next = 0
        self._free_pages(self._manifest_pages)
        self._manifest_pages = []
        self._free_pages(self._sb_ids)
