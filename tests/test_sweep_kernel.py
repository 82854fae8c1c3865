"""The sweep kernel is not vacuous (:mod:`repro.faults.kernel`).

Every subsystem sweep passes through ``crash_sweep``; these tests feed
it an in-memory fake scenario — a dict of rows, one counted "durable
event" per write, no disk — that misbehaves in exactly one way at a
time, and require the kernel to say so.  The real scenarios only ever
show the passing side of each branch.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.errors import ReproError
from repro.faults.kernel import choose_points, crash_sweep, media_sweep
from repro.faults.plan import READ_FAULT_KINDS
from repro.faults.sweep import RecoverableStatement, SweepScenario

KEYS = (1, 2, 3)


@dataclass
class Fake:
    """Delete KEYS from a six-row table: a begin marker, then one
    durable event per key; restart finishes whatever is left."""

    deaf: bool = False      # crashing runs hide their writes from the injector
    lossy: bool = False     # restart "finishes" but skips the last key
    amnesiac: bool = False  # restart finishes nothing, and says so
    restless: bool = False  # every restart claims it resumed something
    unsound: bool = False   # the scenario's own check always fails
    leaky: bool = False     # a "fork" of the case is the case itself

    def build(self):
        rows = {k: f"row{k}" for k in range(6)}
        return Shared(rows) if self.leaky else rows

    def _delete(self, rows, keys, faults):
        for key in keys:
            if faults is None:
                rows.pop(key, None)
            else:
                faults.on_wal_append(
                    SimpleNamespace(kind="delete", lsn=key),
                    lambda record, key=key: rows.pop(key, None),
                )

    def issue(self, rows, faults, media):
        if self.deaf and faults is not None and not faults.plan.is_empty:
            faults = None
        self._delete(rows, (None,) + KEYS, faults)  # None: the begin marker

    def restart(self, rows, faults):
        pending = [k for k in KEYS if k in rows]
        if not self.amnesiac:
            self._delete(rows, pending[: -1 if self.lossy else None], faults)
        return self.restless or bool(pending and not self.amnesiac)

    def state(self, rows):
        return {"t": dict(rows)}

    def problems(self, rows, oracle):
        return ["the check is unsound"] if self.unsound else []


class Shared(dict):
    """A case whose copy is itself: every run writes into the template."""

    def __deepcopy__(self, memo):
        return self


class Counting:
    """Wraps a scenario and counts its builds."""

    def __init__(self, inner):
        self.inner = inner
        self.builds = 0

    def build(self):
        self.builds += 1
        return self.inner.build()

    def __getattr__(self, name):
        return getattr(self.inner, name)


def first_problems(report):
    return [o.problems[0] if o.problems else None for o in report.outcomes]


def test_a_sound_scenario_passes_every_point_and_every_double_crash():
    report = crash_sweep(Fake(), doubles=None)
    assert report.ok, report.summary()
    assert report.durable_events == 4 and report.points == [1, 2, 3, 4]
    # Restart's own writes are counted and each is crashed in turn:
    # 3, 2, 1 and 0 keys are left to finish after events 1..4.
    doubles = [(o.event, o.second_event) for o in report.outcomes
               if o.second_event is not None]
    assert doubles == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    assert [o.recovery_events for o in report.outcomes
            if o.second_event is None] == [3, 2, 1, 0]


def test_a_crash_that_never_fires_fails_the_point():
    report = crash_sweep(Fake(deaf=True))
    assert first_problems(report) == [
        f"no crash fired at durable event {k}" for k in (1, 2, 3, 4)
    ]


def test_a_carried_statement_short_of_the_oracle_is_not_reissued():
    report = crash_sweep(Fake(lossy=True))
    # Events 1 and 2 leave two or more keys; restart drops all but the
    # last.  Re-running the delete would hide that, so the kernel must
    # not: the point fails on the state alone.
    assert first_problems(report)[:2] == ["state != oracle: t"] * 2
    assert report.outcomes[3].ok  # nothing was left to lose


def test_reissue_is_allowed_from_the_pristine_state_only():
    report = crash_sweep(Fake(amnesiac=True))
    # Event 1 is the begin marker: nothing modified, re-issue is fine.
    assert report.outcomes[0].ok
    # Events 2 and 3 leave a half-deleted table nothing will finish.
    for outcome in report.outcomes[1:3]:
        assert "re-issue refused" in outcome.problems[0]
        assert outcome.problems[1] == "state != oracle: t"
    assert report.outcomes[3].ok  # the statement was already complete


def test_a_second_restart_that_resumes_is_not_terminal():
    report = crash_sweep(Fake(restless=True))
    assert first_problems(report) == [
        "recovery is not terminal (a further restart resumed)"
    ] * 4


def test_an_inconsistent_oracle_run_aborts_the_sweep():
    with pytest.raises(ReproError, match="oracle run is already"):
        crash_sweep(Fake(unsound=True))


def test_choose_points_spacing():
    for total, max_points, expected in [
        (5, None, [1, 2, 3, 4, 5]),
        (5, 10, [1, 2, 3, 4, 5]),
        (5, 5, [1, 2, 3, 4, 5]),
        (0, None, []),
        (0, 3, []),
        (100, 0, []),
        (100, -1, []),
        (100, 4, [25, 50, 75, 100]),
        (10, 1, [10]),
        (36, 3, [12, 24, 36]),
        # Rounding may merge neighbours; the last point is always kept.
        (3, 2, [2, 3]),
        (7, 5, [1, 3, 4, 6, 7]),
    ]:
        assert choose_points(total, max_points) == expected, (
            total, max_points,
        )


def test_a_fork_that_leaks_into_the_template_fails_the_sweep():
    with pytest.raises(ReproError, match="template changed during the sweep"):
        crash_sweep(Fake(leaky=True))


def test_crash_sweep_builds_its_scenario_once():
    scenario = Counting(Fake())
    report = crash_sweep(scenario, doubles=None)
    assert report.ok and len(report.outcomes) == 10
    assert scenario.builds == 1
    heap = Counting(RecoverableStatement(SweepScenario(records=24), True))
    report = crash_sweep(heap, max_points=4, doubles=1, torn_write=True)
    assert report.ok, report.summary()
    assert heap.builds == 1


def test_media_sweep_builds_its_scenario_once():
    scenario = Counting(RecoverableStatement(SweepScenario(records=24), True))
    report = media_sweep(scenario, READ_FAULT_KINDS, max_points=3)
    assert report.ok, report.summary()
    assert len(report.outcomes) == 3 * len(READ_FAULT_KINDS)
    assert scenario.builds == 1
