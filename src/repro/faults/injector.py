"""The fault injector: executes a :class:`FaultPlan` against a database.

The injector is wired *into* the durability layers rather than around
them: ``SimulatedDisk.write_page`` and ``WriteAheadLog.append`` hand it
the would-be-durable data plus a ``commit`` callback, so the injector
decides exactly what survives the crash — the full write, a torn half
write, or (for a WAL force that never completed) nothing at all.  This
is the only way to model the interesting failure modes: a crash *after*
the write returns can never lose the write.

Crashing itself is centralised in :meth:`FaultInjector._crash`: drop
every unflushed buffer (``BufferPool.invalidate_all``), tell the
observer, and raise :class:`SimulatedCrash`.  The code lint forbids
raising ``SimulatedCrash`` anywhere outside this package, so every
crash a test provokes is reachable by the sweep too.
"""

from __future__ import annotations

import contextlib
import random
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ForkError
from repro.faults.plan import LATENT, STUCK, TRANSIENT, FaultPlan, SimulatedCrash

#: Payload key marking a torn (partially forced) WAL record.
TORN_RECORD_KEY = "__torn__"


class FaultInjector:
    """Executes one :class:`FaultPlan`; counts durable events as it goes.

    An injector with an empty plan is a pure counter — useful for
    measuring how many durable events a statement produces (the sweep's
    first, fault-free pass) without perturbing it.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        #: ``(kind, detail)`` per durable event, in order.  ``kind`` is
        #: ``"wal"`` or ``"page"``; detail is the record kind / page id.
        self.durable_events: List[Tuple[str, Any]] = []
        self.crash_description: Optional[str] = None
        self.crash_count = 0
        self.torn_page_writes = 0
        self.dropped_wal_records = 0
        self.torn_wal_records = 0
        self.transient_read_failures = 0
        self.corruptions_applied = 0
        #: Read attempts per page (drives transient recovery-after-k).
        self.read_attempts: Dict[int, int] = {}
        self._redo_seen: dict = {}
        self._disk: Optional[Any] = None
        self._pool: Optional[Any] = None
        self._log: Optional[Any] = None

    def __deepcopy__(self, memo: dict) -> "FaultInjector":
        # An injector is bound to the one disk / pool / WAL it is armed
        # on; a copy of an armed structure (a forked database, a forked
        # sweep case) would share or lose it.  Disarm first.
        raise ForkError("cannot fork while a fault injector is armed")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def arm(self, disk: Any, pool: Any = None, log: Any = None) -> None:
        """Attach to a disk (and optionally a pool and a WAL)."""
        if disk.fault_injector is not None and disk.fault_injector is not self:
            raise RuntimeError("another fault injector is already armed")
        if log is not None and log.fault_injector is not None \
                and log.fault_injector is not self:
            raise RuntimeError("another fault injector is armed on the log")
        self._disk = disk
        self._pool = pool
        self._log = log
        disk.fault_injector = self
        if log is not None:
            log.fault_injector = self
        plan = self.plan
        if (
            plan.read_fault in (LATENT, STUCK)
            and plan.read_fault_page is not None
            and self.corruptions_applied == 0
            and disk.page_exists(plan.read_fault_page)
        ):
            # At-rest corruption: the bytes decay *under* the stored
            # checksum (corrupt_page never restamps), silently — the
            # damage is only observable through a verified read.
            disk.corrupt_page(
                plan.read_fault_page,
                self._corrupt_image(
                    disk.durable_image(plan.read_fault_page)
                ),
            )
            self.corruptions_applied += 1

    def disarm(self) -> None:
        if self._disk is not None and self._disk.fault_injector is self:
            self._disk.fault_injector = None
        if self._log is not None and self._log.fault_injector is self:
            self._log.fault_injector = None
        self._disk = None
        self._pool = None
        self._log = None

    @contextlib.contextmanager
    def armed(self, disk: Any, pool: Any = None,
              log: Any = None) -> Iterator["FaultInjector"]:
        self.arm(disk, pool=pool, log=log)
        try:
            yield self
        finally:
            self.disarm()

    # ------------------------------------------------------------------
    # durability hooks (called by SimulatedDisk / WriteAheadLog)
    # ------------------------------------------------------------------
    def on_wal_append(self, record: Any, commit: Callable[[Any], None]) -> None:
        """A WAL force is about to complete.  ``commit(record)`` persists."""
        ordinal = len(self.durable_events) + 1
        crashing = self.plan.crash_after_event == ordinal
        if crashing and self.plan.drop_wal_tail:
            # The force never completed: nothing reaches the log.
            self.dropped_wal_records += 1
            self._note_event("wal", f"{record.kind} (dropped)")
            obs = self._observer()
            if obs is not None:
                obs.on_wal_tail_lost()
            self._crash(f"WAL append of {record.kind!r} lost at event "
                        f"{ordinal}")
        if crashing and self.plan.torn_wal_tail:
            # A mutilated record reaches the log; restart truncates it.
            commit(type(record)(record.lsn, record.kind,
                                {TORN_RECORD_KEY: True}))
            self.torn_wal_records += 1
            self._note_event("wal", f"{record.kind} (torn)")
            obs = self._observer()
            if obs is not None:
                obs.on_wal_tail_lost()
            self._crash(f"WAL append of {record.kind!r} torn at event "
                        f"{ordinal}")
        commit(record)
        self._note_event("wal", record.kind)
        if crashing:
            self._crash(f"after WAL append of {record.kind!r} at event "
                        f"{ordinal}")

    def on_page_read(self, page_id: int) -> bool:
        """A page read attempt; ``True`` tells the disk to fail it.

        The disk raises the :class:`~repro.errors.TransientReadError`
        itself (media errors originate in ``repro/storage/`` or
        ``repro/media/`` only); the injector just decides the outcome
        and keeps the per-page attempt count that makes the fault
        recover on the ``read_recover_after``-th attempt.
        """
        plan = self.plan
        if plan.read_fault != TRANSIENT or page_id != plan.read_fault_page:
            return False
        attempt = self.read_attempts.get(page_id, 0) + 1
        self.read_attempts[page_id] = attempt
        if attempt >= plan.read_recover_after:
            return False
        self.transient_read_failures += 1
        return True

    def on_page_write(self, page_id: int, old: bytes, new: bytes,
                      commit: Callable[[bytes], None]) -> None:
        """A page write is about to land.  ``commit(data)`` persists."""
        plan = self.plan
        if plan.read_fault == STUCK and page_id == plan.read_fault_page:
            # Stuck bits: every image committed to this page lands with
            # the same flips re-applied, so a repair write is corrupted
            # exactly like the original content — unrepairable media.
            original_commit = commit

            def commit(image: bytes) -> None:  # noqa: F811
                self.corruptions_applied += 1
                original_commit(self._corrupt_image(image))

        ordinal = len(self.durable_events) + 1
        crashing = plan.crash_after_event == ordinal
        if crashing and plan.torn_write:
            half = len(new) // 2
            commit(new[:half] + old[half:])
            self.torn_page_writes += 1
            self._note_event("page", f"{page_id} (torn)")
            obs = self._observer()
            if obs is not None:
                obs.on_torn_write()
            self._crash(f"torn write of page {page_id} at event {ordinal}")
        commit(new)
        self._note_event("page", page_id)
        if crashing:
            self._crash(f"after write of page {page_id} at event {ordinal}")

    # ------------------------------------------------------------------
    # named crash points (stage boundaries, n-th redo record)
    # ------------------------------------------------------------------
    def stage(self, point: str) -> None:
        """Execution reached a named stage point."""
        if self.plan.crash_point == point:
            self._crash(f"stage {point!r}")

    def redo_record(self, structure: str) -> None:
        """A logical redo record for ``structure`` was just logged."""
        target = self.plan.crash_mid_structure
        if target is None:
            return
        seen = self._redo_seen.get(structure, 0) + 1
        self._redo_seen[structure] = seen
        if structure == target[0] and seen == target[1]:
            self._crash(f"redo record {seen} of {structure!r}")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def durable_event_count(self) -> int:
        return len(self.durable_events)

    @property
    def crashed(self) -> bool:
        return self.crash_count > 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _observer(self) -> Optional[Any]:
        return None if self._disk is None else self._disk.observer

    def _corrupt_image(self, image: bytes) -> bytes:
        """Apply the plan's deterministic bit-flip mask to ``image``.

        Distinct byte positions (seeded sample) each get one bit
        flipped, so the result is guaranteed to differ from the input
        and the same (seed, page) always produces the same damage —
        every sweep point is exactly reproducible.
        """
        plan = self.plan
        rng = random.Random(
            f"{plan.read_fault_seed}:{plan.read_fault_page}"
        )
        data = bytearray(image)
        for pos in rng.sample(range(len(data)),
                              min(plan.read_fault_bits, len(data))):
            data[pos] ^= 1 << rng.randrange(8)
        return bytes(data)

    def _note_event(self, kind: str, detail: Any) -> None:
        self.durable_events.append((kind, detail))
        obs = self._observer()
        if obs is not None:
            obs.on_fault_event(kind)

    def _crash(self, description: str) -> None:
        self.crash_description = description
        self.crash_count += 1
        if self._pool is not None:
            self._pool.invalidate_all()
        obs = self._observer()
        if obs is not None:
            obs.on_crash(description)
        raise SimulatedCrash(f"injected crash: {description}")
