"""Crash-mid-shard sweep: §3.2 recovery, one shard at a time.

A sharded bulk delete that must survive crashes runs as a *sequence*
of shard-local recoverable statements on one shared WAL — each shard's
statement begins, sweeps its own structures, and commits before the
next shard starts, so at most one statement is ever open and a crash
loses at most one shard's progress.

:func:`shard_crash_sweep` hands :class:`ShardSweepScenario` to the
sweep kernel (:mod:`repro.faults.kernel`).  What is specific to the
sequence:

* one :class:`~repro.faults.injector.FaultInjector` spans all the
  statements — ``arm()`` never resets the event log, so durable events
  are numbered *globally* and event k lands inside some shard's
  statement, the same one on every build,
* the state has one unit per physical shard table (shards share
  nothing), so the kernel's re-issue rule judges the interrupted
  statement on its own shard while the shards already committed sit at
  their oracle value,
* statements queued behind the interrupted one never began; the client
  issues them as on a fresh run as soon as the database is back up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.faults import kernel
from repro.faults.injector import FaultInjector
from repro.faults.kernel import SweepReport
from repro.faults.sweep import capture_state, integrity_problems
from repro.media.retry import MediaRecovery
from repro.recovery.restart import RecoverableBulkDelete, recover
from repro.recovery.wal import WriteAheadLog
from repro.shard.map import ShardMap


@dataclass(frozen=True)
class ShardSweepScenario:
    """A deterministic sharded workload: every ``build()`` is
    bit-identical.

    Table R is range-sharded on its unique driving column A into
    equi-depth shards; the delete list spreads over every shard, so
    global durable events cover begin/sweep/commit of several
    statements and the sweep exercises crashes between shards as well
    as inside them.
    """

    records: int = 60
    delete_fraction: float = 0.4
    seed: int = 11
    page_size: int = 512
    memory_pages: int = 12
    shards: int = 3

    def build(self) -> "ShardSweepCase":
        db = Database(
            page_size=self.page_size,
            memory_bytes=self.memory_pages * self.page_size,
        )
        rng = random.Random(self.seed)
        n = self.records
        a_vals = rng.sample(range(10 * n), n)
        shard_map = ShardMap.from_quantiles("A", a_vals, self.shards)
        db.create_sharded_table(
            TableSchema.of(
                "R", [Attribute.int_("A"), Attribute.char("PAD", 24)]
            ),
            "A",
            shard_map.bounds,
        )
        db.load_table("R", [(a, "p") for a in a_vals])
        db.create_sharded_index("R", "A", unique=True)
        count = max(1, int(n * self.delete_fraction))
        keys = sorted(rng.sample(a_vals, count))
        # The pre-statement image must be durable: a crash at the very
        # first statement event may not lose any of the build.
        db.flush()
        table = db.table("R")
        statements = [
            (table.shard(shard_id).name, frag_keys)
            for shard_id, frag_keys in enumerate(shard_map.route(keys))
            if frag_keys
        ]
        return ShardSweepCase(
            db=db,
            log=WriteAheadLog(db.disk),
            keys=keys,
            statements=statements,
        )

    def issue(
        self,
        case: "ShardSweepCase",
        faults: Optional[FaultInjector],
        media: Optional[MediaRecovery],
    ) -> None:
        while case.statements:
            table_name, frag_keys = case.statements[0]
            RecoverableBulkDelete(
                case.db, table_name, "A", frag_keys, case.log, faults=faults
            ).run()
            del case.statements[0]

    def restart(
        self, case: "ShardSweepCase", faults: Optional[FaultInjector]
    ) -> bool:
        report = recover(case.db, case.log)
        carried = report.resumed and not report.abandoned
        # The interrupted statement is the kernel's to judge (finished
        # by recovery, or re-issued from its pristine shard); the ones
        # queued behind it never began, so no rule applies to them.
        interrupted = case.statements[:1]
        del case.statements[:1]
        self.issue(case, None, None)
        if not carried:
            case.statements.extend(interrupted)
        return carried

    def state(self, case: "ShardSweepCase") -> kernel.State:
        return capture_state(case.db)

    def problems(
        self, case: "ShardSweepCase", oracle: kernel.State
    ) -> List[str]:
        return integrity_problems(case.db)


@dataclass
class ShardSweepCase:
    """One built scenario instance."""

    db: Database
    log: WriteAheadLog
    keys: List[int]
    #: The shard-local statements the client has not had acknowledged:
    #: ``(physical table, keys)`` per non-empty fragment, in shard
    #: order.  The head is the statement in flight.
    statements: List[Tuple[str, List[int]]]


def shard_crash_sweep(
    scenario: Optional[ShardSweepScenario] = None,
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Sweep a crash over every (or ``max_points`` evenly spaced)
    global durable event of the scenario's multi-shard delete."""
    return kernel.crash_sweep(
        scenario or ShardSweepScenario(), max_points, log_fn
    )
