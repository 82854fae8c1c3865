"""Crash-mid-compaction sweep for the LSM engine.

The LSM durability claim is sharper than the heap path's WAL story:
*every* buffer-pool page write the tree performs — log appends, run
builds, manifest pages, superblock flips — is a durable event, and
cutting the timeline after any one of them must leave a state that
recovers to something between "delete not yet applied" and "delete
fully applied", with nothing corrupted, nothing lost, and **no
tombstoned row ever resurrected**.

:func:`lsm_crash_sweep` hands :class:`LsmSweepScenario` to the sweep
kernel (:mod:`repro.faults.kernel`).  The scenario's state has one unit
per *key*, because tombstones are idempotent per key and the tree keeps
no statement journal: :meth:`~repro.lsm.tree.LsmTree.recover` never
carries the delete forward, so the kernel's re-issue rule applies at
every point — a key whose row differs from the oracle's must show its
byte-identical pre-delete image (no phantom, no corrupted row, no
non-targeted row missing) — and the re-issued delete must land on the
oracle.  On top of that the scenario requires:

* a full :meth:`~repro.lsm.tree.LsmTree.compact_all` — which drops
  every tombstone — still shows the oracle state (deleted rows do not
  come back when their tombstones are reclaimed);
* a second recovery, from the compacted durable state, sees the
  identical rows (recovery is terminal).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.faults import kernel
from repro.faults.injector import FaultInjector
from repro.faults.kernel import SweepReport
from repro.lsm.engine import lsm_bulk_delete
from repro.lsm.tree import LsmConfig, LsmTree
from repro.media.retry import MediaRecovery


@dataclass(frozen=True)
class LsmSweepScenario:
    """A deterministic LSM workload: every ``build()`` is bit-identical.

    The config is deliberately tiny (12-entry memtable, 2-page runs,
    2-run levels) so the bulk delete itself triggers memtable flushes
    and FADE compactions — the sweep then cuts *inside* run builds,
    manifest commits and superblock flips, not just between log
    appends.  The delete list mixes one contiguous block (compiled to
    a range tombstone) with scattered point keys.
    """

    records: int = 64
    #: Rows inserted through the log path after the bulk load, so L0
    #: runs and a non-empty memtable exist before the delete starts.
    trickle: int = 20
    block_start: int = 16
    block_len: int = 20
    scattered: int = 12
    seed: int = 7
    page_size: int = 512
    memory_pages: int = 24
    torn: bool = False

    def config(self) -> LsmConfig:
        return LsmConfig(
            memtable_entries=12,
            l0_runs=2,
            run_pages=2,
            level_runs=2,
            fanout=2,
            tombstone_density_trigger=0.2,
            tombstone_age_seqs=64,
            max_delete_compactions=4,
        )

    def rows(self) -> List[Tuple[int, str]]:
        """The pre-delete image: bulk-loaded rows, then the trickle."""
        n = self.records
        return [(a, f"row{a}") for a in range(n)] + [
            (n + i, f"late{i}") for i in range(self.trickle)
        ]

    def build(self) -> "LsmSweepCase":
        db = Database(
            page_size=self.page_size,
            memory_bytes=self.memory_pages * self.page_size,
        )
        db.create_table(
            TableSchema.of(
                "R", [Attribute.int_("A"), Attribute.char("PAD", 20)]
            ),
            engine="lsm",
            lsm_config=self.config(),
        )
        n = self.records
        rows = self.rows()
        db.load_table("R", rows[:n])
        for row in rows[n:]:
            db.insert("R", row)
        block = list(range(self.block_start, self.block_start + self.block_len))
        # Scattered keys: a fixed stride walk over the tail keys keeps
        # the build free of RNG state while spreading points across
        # runs.
        tail = [
            k for k in range(self.block_start + self.block_len, n + self.trickle)
        ]
        step = max(1, len(tail) // max(1, self.scattered))
        points = tail[::step][: self.scattered]
        keys = block + points
        return LsmSweepCase(db=db, keys=keys)

    def issue(
        self,
        case: "LsmSweepCase",
        faults: Optional[FaultInjector],
        media: Optional[MediaRecovery],
    ) -> None:
        armed = (
            faults.armed(case.db.disk, pool=case.db.pool)
            if faults is not None else nullcontext()
        )
        with armed:
            lsm_bulk_delete(case.db, "R", "A", case.keys)

    def restart(
        self, case: "LsmSweepCase", faults: Optional[FaultInjector]
    ) -> bool:
        # Recover from durable state only and re-bind the catalog entry.
        # The tree journals no statement, so nothing is ever carried
        # forward: finishing the delete is the client's re-issue.
        case.db.pool.invalidate_all()
        table = case.db.table("R")
        assert table.lsm is not None
        table.lsm = LsmTree.recover(
            case.db.pool, table.lsm.handle,
            config=table.lsm.config, name="R",
        )
        return False

    def state(self, case: "LsmSweepCase") -> kernel.State:
        return {key: values for key, values in case.db.scan("R")}

    def problems(
        self, case: "LsmSweepCase", oracle: kernel.State
    ) -> List[str]:
        targeted = set(case.keys)
        if oracle != {k: (k, v) for k, v in self.rows() if k not in targeted}:
            return [
                "fault-free LSM delete does not leave the set difference: "
                f"{len(oracle)} rows"
            ]
        # Dropping every tombstone must not resurrect rows.
        case.tree.compact_all()
        state = self.state(case)
        if state != oracle:
            resurrected = sorted(set(state) - set(oracle))
            return [
                "compaction after recovery changed the visible state"
                + (f"; resurrected keys {resurrected[:5]}" if resurrected else "")
            ]
        # Recovery is terminal — a further restart, now from the
        # compacted durable state, sees the identical rows.
        self.restart(case, None)
        if self.state(case) != oracle:
            return ["second recovery diverged (recovery is not terminal)"]
        return []


@dataclass
class LsmSweepCase:
    """One built scenario instance."""

    db: Database
    keys: List[int]

    @property
    def tree(self) -> LsmTree:
        tree = self.db.table("R").lsm
        assert tree is not None
        return tree


def lsm_crash_sweep(
    scenario: Optional[LsmSweepScenario] = None,
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Sweep a crash over every (or ``max_points`` evenly spaced)
    durable event of the scenario's LSM bulk delete."""
    scenario = scenario or LsmSweepScenario()
    return kernel.crash_sweep(
        scenario, max_points, log_fn, torn_write=scenario.torn
    )
