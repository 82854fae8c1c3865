"""The fault-sweep kernel: one oracle pass, one point loop, one verdict.

§3.2's recovery claim is a single property, whichever subsystem runs
the statement: *build → run fault-free (the oracle) → count what
became durable → fault at k → restart → equal the oracle → a further
restart finds nothing to do*.  This module states it once.  A subsystem
contributes a :class:`Scenario` — how to build a deterministic case,
issue its statement, restart from durable state, read the logical
state, and check its own invariants — and calls :func:`crash_sweep` or
:func:`media_sweep`; the oracle pass, the point chooser, the per-point
skeleton, the re-issue rule and the terminal-restart check live here
and nowhere else.

The re-issue rule
-----------------

A crash can leave a statement that verifiably never began (its begin
record was the lost tail, or restart abandoned it before any
modification).  Re-issuing it is the client's contract, not a recovery
failure — but only from the **pristine** state.  ``Scenario.state``
returns one entry per unit a fault may leave behind on its own (a
table, a shard, an LSM key, a whole journaled run); when ``restart``
reports that it carried nothing forward, every unit still short of the
oracle must be bit-identical to its pre-statement image, or the
re-issue is refused and the point fails.  A statement that restart
*did* carry forward is never re-issued: a state short of the oracle is
then a recovery bug, and re-running the statement would mask it.

Build once, fork per point
--------------------------

A sweep calls ``Scenario.build`` exactly once.  That case is the
*template*: it is never issued against.  The oracle pass and every
point run on their own fork of it, ``copy.deepcopy(template)`` — which
clones the case's :class:`~repro.catalog.database.Database` through
:meth:`~repro.catalog.database.Database.fork` (page images shared,
everything mutable copied) and rebinds every other reference in the
case (WAL, constraint registry, plans) to the clone.  A fork is
simulated-identical to a fresh build, so durable event k always lands
on the same write: a failing point is exactly reproducible with
``FaultPlan(crash_after_event=k)`` on a fresh build.  At the end of
each sweep the template's state must still be the pre-statement state;
a fork that leaked a write into it fails the sweep.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    TypeVar,
)

from repro.errors import MediaError, QuarantinedPage, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import STUCK, FaultPlan, SimulatedCrash
from repro.media.retry import MediaPolicy, MediaRecovery, wal_image_source
from repro.media.scrub import require_scrubbed, scrub_database

#: ``Scenario.state``'s value: unit name -> that unit's logical content.
State = Mapping[Any, Any]

C = TypeVar("C")


class Scenario(Protocol[C]):
    """What a subsystem supplies to have its statement swept."""

    def build(self) -> C:
        """A fresh case, bit-identical on every call, whose
        pre-statement image is already durable.  The kernel calls it
        once per sweep and ``copy.deepcopy``-forks the result per run,
        so the case must copy faithfully (a database in it forks)."""

    def issue(
        self,
        case: C,
        faults: Optional[FaultInjector],
        media: Optional[MediaRecovery],
    ) -> None:
        """Run the client's statement to completion with ``faults``
        armed and ``media`` attached for its duration.  With neither it
        is the fault-free oracle run and the client's re-issue."""

    def restart(self, case: C, faults: Optional[FaultInjector]) -> bool:
        """Recover from the durable state alone.  ``True`` when an
        interrupted statement was found and carried forward to
        completion.  ``faults`` crashes or counts the recovery itself;
        a recovery path without that seam ignores it."""

    def state(self, case: C) -> State:
        """Logical content, one entry per unit a fault may leave
        behind on its own (see "The re-issue rule" above)."""

    def problems(self, case: C, oracle: State) -> List[str]:
        """The scenario's own invariants on a finished case: internal
        consistency, audits, anything oracle equality does not show."""


def choose_points(total: int, max_points: Optional[int]) -> List[int]:
    """Every point in ``1..total``, or ``max_points`` evenly spaced ones
    (always ending on ``total``)."""
    if total <= 0:
        return []
    if max_points is None or max_points >= total:
        return list(range(1, total + 1))
    if max_points <= 0:
        return []
    return sorted({
        max(1, min(total, round(i * total / max_points)))
        for i in range(1, max_points + 1)
    })


def _behind(state: State, oracle: State) -> List[Any]:
    """The units whose content is not the oracle's."""
    return [
        unit
        for unit in sorted(set(oracle) | set(state))
        if state.get(unit) != oracle.get(unit)
    ]


def _name_units(units: Sequence[Any]) -> str:
    shown = ", ".join(str(unit) for unit in units[:5])
    more = len(units) - 5
    return shown + (f" (+{more} more)" if more > 0 else "")


def _require_pristine(
    scenario: "Scenario[C]", template: C, initial: State
) -> None:
    """Fail the sweep if a run wrote through its fork into the template
    (every later point would then have started from the wrong state)."""
    changed = _behind(scenario.state(template), initial)
    if changed:
        raise ReproError(
            "sweep template changed during the sweep (a fork leaked a "
            f"write into it): {_name_units(changed)}"
        )


def _oracle_state(scenario: "Scenario[C]", case: C) -> State:
    """The state of a fault-free run, after the scenario vouched for it."""
    oracle = scenario.state(case)
    problems = scenario.problems(case, oracle)
    if problems:
        raise ReproError(
            "fault-free oracle run is already inconsistent: "
            + "; ".join(problems)
        )
    return oracle


# ----------------------------------------------------------------------
# crash sweep
# ----------------------------------------------------------------------
@dataclass
class PointOutcome:
    """One crash-point run (single crash, or crash + recovery crash)."""

    event: int
    second_event: Optional[int]
    crash: Optional[str] = None
    problems: List[str] = field(default_factory=list)
    recovery_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class SweepReport:
    """Everything a crash sweep did and found."""

    durable_events: int = 0
    points: List[int] = field(default_factory=list)
    outcomes: List[PointOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        single = [o for o in self.outcomes if o.second_event is None]
        double = [o for o in self.outcomes if o.second_event is not None]
        lines = [
            f"durable events: {self.durable_events}; crash points swept: "
            f"{len(single)}; double-crash runs: {len(double)}; "
            f"failures: {len(self.failures)}"
        ]
        for outcome in self.failures[:10]:
            where = f"event {outcome.event}"
            if outcome.second_event is not None:
                where += f" + recovery event {outcome.second_event}"
            lines.append(f"  FAIL at {where}: {outcome.problems[0]}")
        return "\n".join(lines)


def crash_sweep(
    scenario: "Scenario[C]",
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
    doubles: Optional[int] = 0,
    **modifiers: Any,
) -> SweepReport:
    """Crash after every (or ``max_points`` evenly spaced) durable event
    of the scenario's statement; restart; require the oracle.

    ``doubles`` recovery events per point are re-run with a second crash
    inside the restart (``None``: every recovery event; ``0``: none).
    ``modifiers`` are the :class:`FaultPlan` fields shaping the crashing
    event itself (``torn_write``, ``drop_wal_tail``, ``torn_wal_tail``).
    """
    say = log_fn or (lambda message: None)

    # Pass 0, on a fork of the one build: pre-statement state, oracle
    # state, durable event count.
    template = scenario.build()
    case = copy.deepcopy(template)
    initial = scenario.state(case)
    counter = FaultInjector()
    scenario.issue(case, counter, None)
    oracle = _oracle_state(scenario, case)
    total = counter.durable_event_count
    report = SweepReport(
        durable_events=total, points=choose_points(total, max_points)
    )
    shaped = ", ".join(name for name, on in modifiers.items() if on)
    say(
        f"oracle: {total} durable events; sweeping {len(report.points)} "
        "crash points" + (f" ({shaped})" if shaped else "")
    )

    def run(event: int, second_event: Optional[int]) -> PointOutcome:
        outcome = _crash_point(
            scenario, copy.deepcopy(template), modifiers, event,
            second_event, initial, oracle,
        )
        report.outcomes.append(outcome)
        if not outcome.ok:
            where = f"event {event}"
            if second_event is not None:
                where += f" + recovery event {second_event}"
            say(f"  {where}: FAIL: {outcome.problems[0]}")
        return outcome

    for k in report.points:
        first = run(k, None)
        if first.ok:
            for j in choose_points(first.recovery_events, doubles):
                run(k, j)
    _require_pristine(scenario, template, initial)
    return report


def _crash_point(
    scenario: "Scenario[C]",
    case: C,
    modifiers: Mapping[str, Any],
    event: int,
    second_event: Optional[int],
    initial: State,
    oracle: State,
) -> PointOutcome:
    outcome = PointOutcome(event=event, second_event=second_event)
    try:
        scenario.issue(
            case,
            FaultInjector(FaultPlan(crash_after_event=event, **modifiers)),
            None,
        )
    except SimulatedCrash as exc:
        outcome.crash = str(exc)
    if outcome.crash is None:
        outcome.problems.append(f"no crash fired at durable event {event}")
        return outcome

    if second_event is not None:
        # Crash the restart itself, then restart from *that*.
        try:
            scenario.restart(case, FaultInjector(
                FaultPlan(crash_after_event=second_event, **modifiers)
            ))
        except SimulatedCrash:
            pass
    counting = FaultInjector()
    carried = scenario.restart(case, counting)
    outcome.recovery_events = counting.durable_event_count

    state = scenario.state(case)
    if state != oracle and not carried:
        # Nothing was carried forward: the statement is complete (then
        # the state is the oracle and we are not here) or never began,
        # and the client re-issues it — from the pristine state only.
        touched = [
            unit for unit in _behind(state, oracle)
            if state.get(unit) != initial.get(unit)
        ]
        if touched:
            outcome.problems.append(
                "statement never began, yet the state is not pristine "
                f"({_name_units(touched)}); re-issue refused"
            )
        else:
            scenario.issue(case, None, None)
            state = scenario.state(case)
    if state != oracle:
        outcome.problems.append(
            "state != oracle: " + _name_units(_behind(state, oracle))
        )
    outcome.problems.extend(scenario.problems(case, oracle))
    if scenario.restart(case, None):
        outcome.problems.append(
            "recovery is not terminal (a further restart resumed)"
        )
    return outcome


# ----------------------------------------------------------------------
# media sweep
# ----------------------------------------------------------------------
@dataclass
class MediaPointOutcome:
    """One (page, fault kind) run of the sweep."""

    page_id: int
    kind: str
    #: ``"healed"`` or ``"aborted"``.
    outcome: str = ""
    #: Exception class name for aborted points.
    aborted_with: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class MediaSweepReport:
    """Everything a media sweep did and found."""

    #: Live pages in the pre-statement durable image.
    durable_pages: int = 0
    #: The page ids actually swept (all, or evenly sampled).
    pages: List[int] = field(default_factory=list)
    outcomes: List[MediaPointOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[MediaPointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        healed = sum(1 for o in self.outcomes if o.outcome == "healed")
        aborted = sum(1 for o in self.outcomes if o.outcome == "aborted")
        kinds = len({o.kind for o in self.outcomes}) or 1
        lines = [
            f"durable pages: {self.durable_pages}; points swept: "
            f"{len(self.outcomes)} ({len(self.pages)} pages x "
            f"{kinds} kinds); healed: {healed}; "
            f"clean aborts: {aborted}; failures: {len(self.failures)}"
        ]
        for outcome in self.failures[:10]:
            lines.append(
                f"  FAIL page {outcome.page_id} ({outcome.kind}): "
                f"{outcome.problems[0]}"
            )
        return "\n".join(lines)


def media_sweep(
    scenario: "Scenario[Any]",
    kinds: Sequence[str],
    max_points: Optional[int] = None,
    log_fn: Optional[Callable[[str], None]] = None,
    policy: Optional[MediaPolicy] = None,
) -> MediaSweepReport:
    """Inject every read-fault kind in ``kinds`` on every (or
    ``max_points`` evenly sampled) pre-statement page; each point must
    heal to the oracle or abort typed and clean.

    The scenario's cases expose ``db`` and ``log``: the medium the
    skeleton damages and replaces, and the WAL whose full-page images
    repair it."""
    say = log_fn or (lambda message: None)

    # Pass 0, on a fork of the one build: pre-statement pages + state,
    # fault-free oracle state.  The operator's backup is the template's
    # pre-statement durable image of every page, taken once.
    template = scenario.build()
    disk = template.db.disk
    pages = disk.page_ids()
    backup = {pid: disk.durable_image(pid) for pid in pages}
    case = copy.deepcopy(template)
    initial = scenario.state(case)
    scenario.issue(case, None, None)
    oracle = _oracle_state(scenario, case)
    report = MediaSweepReport(
        durable_pages=len(pages),
        pages=[pages[i - 1] for i in choose_points(len(pages), max_points)],
    )
    say(
        f"oracle: {len(pages)} durable pages; sweeping "
        f"{len(report.pages)} of them x {len(kinds)} fault kinds"
    )
    for kind in kinds:
        for page_id in report.pages:
            outcome = _media_point(
                scenario, copy.deepcopy(template), backup, page_id, kind,
                initial, oracle, policy,
            )
            report.outcomes.append(outcome)
            if not outcome.ok:
                say(
                    f"  page {page_id} ({kind}): FAIL: "
                    f"{outcome.problems[0]}"
                )
    _require_pristine(scenario, template, initial)
    return report


def _media_point(
    scenario: "Scenario[Any]",
    case: Any,
    backup: Mapping[int, bytes],
    page_id: int,
    kind: str,
    initial: State,
    oracle: State,
    policy: Optional[MediaPolicy],
) -> MediaPointOutcome:
    outcome = MediaPointOutcome(page_id=page_id, kind=kind)
    db, log, disk = case.db, case.log, case.db.disk
    logged = len(log)
    # Arming applies at-rest corruption for latent/stuck plans.
    injector = FaultInjector(
        FaultPlan(read_fault=kind, read_fault_page=page_id)
    )
    # Repair sources mirror a deployment: the WAL's full-page images
    # first, then the backup.  WAL images are safe mid-statement because
    # a pool miss reads a page before its frame can be dirtied (see
    # :mod:`repro.media.retry`).
    media = MediaRecovery(
        disk,
        policy=policy,
        image_sources=[
            ("wal", wal_image_source(log)),
            ("backup", backup.get),
        ],
    )
    try:
        if kind == STUCK:
            # The amcheck gate: genuinely bad media must fail the
            # statement before it can modify anything.  (Transient and
            # latent points skip the gate — the mid-statement
            # retry/repair path must heal them.)
            with db.pool.attached(media=media), \
                    injector.armed(disk, pool=db.pool, log=log):
                require_scrubbed(db, media=media, check_structures=False)
        scenario.issue(case, injector, media)
    except MediaError as exc:
        # An abort is acceptable only if it is typed, names the faulty
        # page, fenced it off, and modified nothing — and a fault-free
        # re-issue after media replacement reaches the oracle.
        outcome.outcome = "aborted"
        outcome.aborted_with = type(exc).__name__
        if not isinstance(exc, QuarantinedPage):
            outcome.problems.append(
                f"abort raised {type(exc).__name__}, expected "
                "QuarantinedPage"
            )
        if exc.page_id != page_id:
            outcome.problems.append(
                f"abort names page {exc.page_id}, expected {page_id}"
            )
        if disk.quarantined != {page_id}:
            outcome.problems.append(
                f"quarantined set is {sorted(disk.quarantined)}, "
                f"expected [{page_id}]"
            )
        if len(log) != logged:
            outcome.problems.append(
                "statement started before the abort "
                f"({len(log) - logged} WAL records logged); "
                "modifications may have been lost"
            )
        # The operator replaces the medium; what is left must be the
        # pre-statement image, and only then may the client re-issue.
        disk.restore_page(page_id, backup[page_id])
        if scenario.state(case) != initial:
            outcome.problems.append(
                "abort was not clean: state != pre-statement image "
                "after media replacement"
            )
            return outcome
        scenario.issue(case, None, None)
    else:
        # The statement completed.  Pages it never read may still be
        # damaged; the scrubber must finish the job online.
        outcome.outcome = "healed"
        with db.pool.attached(media=media), \
                injector.armed(disk, pool=db.pool, log=log):
            post = scrub_database(db, media=media)
        if not post.ok:
            outcome.problems.append(
                "post-run scrub could not heal the database: "
                + post.summary()
            )
    if scenario.state(case) != oracle:
        outcome.problems.append(
            f"{outcome.outcome} state != oracle (page {page_id}, {kind})"
        )
    outcome.problems.extend(scenario.problems(case, oracle))
    return outcome
