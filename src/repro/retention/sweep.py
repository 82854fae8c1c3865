"""Fault sweeps over the retention subsystem.

The scenario is a **two-policy** retention run — a GDPR-style subject
erasure cascading from a heap root across CASCADE, SET NULL and (clean)
RESTRICT edges into heap *and* LSM children, plus an age-expiry policy
over a child table.  :func:`retention_sweep` and
:func:`retention_media_sweep` hand it to the sweep kernel
(:mod:`repro.faults.kernel`) as one journaled run: the whole database
is a single unit of state, restart is :func:`recover_retention`, and on
top of oracle equality every point must pass the internal-consistency
walk *and* a **zero-finding erasure audit**.  The media pass arms a
transient read fault per durable page with
:class:`~repro.media.retry.MediaRecovery` attached; the run must heal
mid-policy.

The mutation pass (:func:`audit_mutation_checks`) is not a sweep: it
plants a stale index entry, a retained WAL full-page image, an undropped
LSM tombstone, and a stale freed-page payload into an otherwise clean
end state — each plant must produce at least one audit finding in the
expected location, proving the audit is not vacuously green.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.core.integrity import ConstraintRegistry, OnDelete
from repro.errors import ReproError
from repro.faults import kernel
from repro.faults.injector import FaultInjector
from repro.faults.kernel import MediaSweepReport, SweepReport
from repro.faults.plan import TRANSIENT
from repro.faults.sweep import capture_state, integrity_problems
from repro.media.retry import MediaRecovery
from repro.recovery.wal import WriteAheadLog
from repro.retention.audit import ErasureWitness, audit_erasure, build_witness
from repro.retention.policy import (
    RetentionPlan,
    RetentionPolicy,
    compile_policy,
)
from repro.retention.run import RecoverableRetentionRun, recover_retention

#: Key bases chosen so witness values are distinctive 8-byte patterns
#: that cannot collide with page headers, RIDs or surviving keys.
UID_BASE = 7_700_000
TS_BASE = 8_800_000


@dataclass(frozen=True)
class RetentionScenario:
    """Deterministic two-policy retention workload.

    ``users`` (heap root: unique UID index, secondary REGION index,
    per-row SECRET payload) fans out over four FK edges: ``orders``
    (CASCADE, heap, indexes on OUID and TS), ``profiles`` (SET NULL,
    heap), ``audits`` (RESTRICT, references survivors only — the clean
    abort path), and ``events`` (CASCADE, LSM keyed by EUID).  Policy 1
    erases a victim subset of users everywhere; policy 2 expires the
    oldest orders by TS — overlapping the cascade, which the idempotent
    node contract must tolerate.
    """

    users: int = 12
    victims: int = 4
    orders_per_user: int = 2
    expired_orders: int = 5
    seed: int = 11
    page_size: int = 512
    memory_pages: int = 24

    def build(self) -> "RetentionCase":
        if not 0 < self.victims < self.users:
            raise ReproError("need 1 <= victims < users")
        db = Database(
            page_size=self.page_size,
            memory_bytes=self.memory_pages * self.page_size,
        )
        rng = random.Random(self.seed)
        uids = [UID_BASE + i + 1 for i in range(self.users)]
        victims = sorted(rng.sample(uids, self.victims))
        survivors = [u for u in uids if u not in set(victims)]

        db.create_table(TableSchema.of("users", [
            Attribute.int_("UID"), Attribute.int_("REGION"),
            Attribute.char("SECRET", 12),
        ]))
        db.load_table("users", [
            (uid, 100 + i % 3, f"S{uid}!") for i, uid in enumerate(uids)
        ])
        db.create_index("users", "UID", unique=True)
        db.create_index("users", "REGION")

        order_rows = []
        ts = TS_BASE
        for uid in uids:
            for _ in range(self.orders_per_user):
                ts += 1
                order_rows.append((uid, ts, f"T{ts}!"))
        rng.shuffle(order_rows)
        db.create_table(TableSchema.of("orders", [
            Attribute.int_("OUID"), Attribute.int_("TS"),
            Attribute.char("TAG", 12),
        ]))
        db.load_table("orders", order_rows)
        db.create_index("orders", "OUID")
        db.create_index("orders", "TS")
        cutoff = TS_BASE + self.expired_orders + 1

        db.create_table(TableSchema.of("profiles", [
            Attribute.int_("PUID"), Attribute.char("NOTE", 8),
        ]))
        db.load_table("profiles", [(uid, "pro") for uid in uids])
        db.create_index("profiles", "PUID")

        db.create_table(TableSchema.of("audits", [
            Attribute.int_("AUID"), Attribute.char("NOTE", 8),
        ]))
        db.load_table("audits", [
            (survivors[i % len(survivors)], "aud")
            for i in range(len(survivors))
        ])
        db.create_index("audits", "AUID")

        db.create_table(
            TableSchema.of("events", [
                Attribute.int_("EUID"), Attribute.char("EPAYLOAD", 12),
            ]),
            engine="lsm",
            key_column="EUID",
        )
        db.load_table("events", [(uid, f"E{uid}!") for uid in uids])

        registry = ConstraintRegistry(db)
        registry.add_foreign_key(
            "orders", "OUID", "users", "UID", OnDelete.CASCADE
        )
        registry.add_foreign_key(
            "profiles", "PUID", "users", "UID", OnDelete.SET_NULL
        )
        registry.add_foreign_key(
            "audits", "AUID", "users", "UID", OnDelete.RESTRICT
        )
        registry.add_foreign_key(
            "events", "EUID", "users", "UID", OnDelete.CASCADE
        )
        db.flush()

        policies = [
            RetentionPolicy(
                "subject-erasure", "users", "UID",
                subject_keys=tuple(victims),
            ),
            RetentionPolicy("order-expiry", "orders", "TS", cutoff=cutoff),
        ]
        expired_ts = [
            t for (_, t, _) in order_rows if t < cutoff
        ]
        victim_set = set(victims)
        patterns = (
            [f"S{uid}!".encode() for uid in victims]
            + [
                tag.encode()
                for (uid, t, tag) in order_rows
                if uid in victim_set or t < cutoff
            ]
            + [f"E{uid}!".encode() for uid in victims]
        )
        return RetentionCase(
            db=db,
            log=WriteAheadLog(db.disk),
            registry=registry,
            policies=policies,
            victims=victims,
            expired_ts=sorted(expired_ts),
            patterns=sorted(patterns),
        )


@dataclass
class RetentionCase:
    """One built scenario instance."""

    db: Database
    log: WriteAheadLog
    registry: ConstraintRegistry
    policies: List[RetentionPolicy]
    victims: List[int]
    expired_ts: List[int]
    patterns: List[bytes]

    def compile(self) -> List[RetentionPlan]:
        return [
            compile_policy(self.db, self.registry, policy)
            for policy in self.policies
        ]

    def witness(self, plans: List[RetentionPlan]) -> ErasureWitness:
        return build_witness(plans, patterns=self.patterns)


#: The heap/index/FK walk under its retention-era name: LSM tables and
#: SET NULL children are branches of the one implementation.
retention_integrity_problems = integrity_problems


@dataclass
class _Run:
    """One built case plus the plans compiled against its pre-run
    state (compiling later would resolve keys the run already erased)."""

    case: RetentionCase
    plans: List[RetentionPlan]

    @property
    def db(self) -> Database:
        return self.case.db

    @property
    def log(self) -> WriteAheadLog:
        return self.case.log


@dataclass(frozen=True)
class _JournaledRun:
    """The scenario's retention run as the kernel sees it."""

    scenario: RetentionScenario

    def build(self) -> _Run:
        case = self.scenario.build()
        return _Run(case, case.compile())

    def issue(
        self,
        run: _Run,
        faults: Optional[FaultInjector],
        media: Optional[MediaRecovery],
    ) -> None:
        RecoverableRetentionRun(
            run.db, run.plans, run.log,
            faults=faults, full_page_writes=True, media=media,
        ).run()

    def restart(self, run: _Run, faults: Optional[FaultInjector]) -> bool:
        # A run whose begin record died with the crash resumes nothing
        # and is re-issued whole; so does a crash right after the final
        # ``retention_end`` append, but then the state is the oracle.
        return recover_retention(
            run.db, run.log, full_page_writes=True
        ).resumed

    def state(self, run: _Run) -> kernel.State:
        # One unit: the journal makes the run atomic across its tables.
        return {"database": capture_state(run.db)}

    def problems(self, run: _Run, oracle: kernel.State) -> List[str]:
        problems = integrity_problems(
            run.db, run.case.registry, run.case.victims
        )
        audit = audit_erasure(run.db, run.log, run.case.witness(run.plans))
        for finding in audit.findings[:5]:
            problems.append(f"audit: {finding.describe()}")
        return problems


def retention_sweep(
    scenario: Optional[RetentionScenario] = None,
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Crash at every (or ``max_points`` evenly spaced) durable event
    of the two-policy run; recover, resume, and audit."""
    return kernel.crash_sweep(
        _JournaledRun(scenario or RetentionScenario()), max_points, log_fn
    )


def retention_media_sweep(
    scenario: Optional[RetentionScenario] = None,
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> MediaSweepReport:
    """Transient-fault every (or ``max_points`` sampled) pre-run durable
    page mid-policy; the run must heal through MediaRecovery's bounded
    retry/backoff and still reach the oracle with a clean audit."""
    return kernel.media_sweep(
        _JournaledRun(scenario or RetentionScenario()),
        (TRANSIENT,), max_points, log_fn,
    )


# ----------------------------------------------------------------------
# audit mutation tests: the audit must catch planted traces
# ----------------------------------------------------------------------
def _plant_index_entry(case: RetentionCase) -> None:
    # A stale B-tree entry for an erased user, as if one leaf delete
    # had been lost.
    ix = case.db.table("users").indexes["I_users_UID"]
    ix.tree.insert(case.victims[0], 7)  # type: ignore[union-attr]


def _plant_wal_image(case: RetentionCase) -> None:
    # A retained pre-delete full-page image: overwrite one redacted
    # image with bytes still holding a victim's SECRET payload.
    for record in case.log.records("page_image"):
        image = bytearray(record.payload["image"])
        secret = f"S{case.victims[0]}!".encode()
        image[64:64 + len(secret)] = secret
        case.log.redact(record.lsn, image=bytes(image))
        return
    raise ReproError("scenario produced no page_image records")


def _plant_lsm_tombstone(case: RetentionCase) -> None:
    # An undropped tombstone still *naming* the erased key.
    lsm = case.db.table("events").lsm
    assert lsm is not None
    lsm.delete(case.victims[0])


def _plant_freed_page(case: RetentionCase) -> None:
    # Stale victim bytes resurfacing on a freed-but-retained page, as
    # if the erase pass had skipped the shred.
    disk = case.db.disk
    freed = disk.freed_page_ids()
    if not freed:
        raise ReproError("scenario freed no pages")
    image = bytearray(disk.page_size)
    secret = f"S{case.victims[0]}!".encode()
    image[32:32 + len(secret)] = secret
    disk.corrupt_page(freed[0], bytes(image))


#: ``(label, plant, audit location that must report it)`` per check.
AUDIT_MUTATIONS: Tuple[
    Tuple[str, Callable[[RetentionCase], None], str], ...
] = (
    ("stale index entry", _plant_index_entry, "btree"),
    ("retained WAL image", _plant_wal_image, "wal-image"),
    ("undropped LSM tombstone", _plant_lsm_tombstone, "lsm"),
    ("unshredded freed page", _plant_freed_page, "freed-page"),
)


def audit_mutation_checks(
    scenario: Optional[RetentionScenario] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> List[str]:
    """Prove the audit non-vacuous: each planted stale trace must be
    caught, in the expected location.  Returns failure strings."""
    definition = _JournaledRun(scenario or RetentionScenario())
    say = log_fn or (lambda message: None)
    failures: List[str] = []
    for label, plant, location in AUDIT_MUTATIONS:
        run = definition.build()
        definition.issue(run, None, None)
        case, witness = run.case, run.case.witness(run.plans)
        baseline = audit_erasure(case.db, case.log, witness)
        if not baseline.ok:
            failures.append(
                f"{label}: baseline audit already dirty: "
                + baseline.findings[0].describe()
            )
            continue
        plant(case)
        audit = audit_erasure(case.db, case.log, witness)
        hits = [f for f in audit.findings if f.location == location]
        if hits:
            say(f"  {label}: caught ({hits[0].describe()})")
        else:
            failures.append(
                f"{label}: planted trace not detected (findings: "
                f"{[f.location for f in audit.findings]})"
            )
    return failures
