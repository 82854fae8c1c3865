"""Crash-mid-compaction sweep for the LSM engine (bounded variants).

The full sweep (every durable event, plain and torn) runs in CI via
``python -m repro faultsweep --lsm``; these tests keep a bounded
version in the tier-1 suite so a durability regression — a tombstone
resurrecting a row after recovery, a torn log page destroying an
acknowledged write — fails fast and close to the code.
"""

import dataclasses

from repro.lsm import LsmSweepScenario, lsm_crash_sweep


def test_bounded_lsm_sweep_is_clean():
    report = lsm_crash_sweep(max_points=8)
    assert report.durable_events > 0
    assert len(report.points) == 8
    assert report.ok, report.failures


def test_bounded_torn_lsm_sweep_is_clean():
    report = lsm_crash_sweep(
        scenario=LsmSweepScenario(torn=True), max_points=8
    )
    assert report.ok, report.failures


def test_sweep_scenario_is_deterministic():
    scenario = LsmSweepScenario()
    a, b = scenario.build(), scenario.build()
    assert a.keys == b.keys
    assert scenario.state(a) == scenario.state(b)
    # The sweep relies on event k landing on the same page write in
    # every rebuild; identical durable images imply identical timelines.
    assert a.db.disk.stats.writes == b.db.disk.stats.writes


def test_smaller_scenario_still_exercises_flush_and_compaction():
    scenario = dataclasses.replace(LsmSweepScenario(), records=48)
    case = scenario.build()
    tree = case.tree
    # The scenario's tiny config makes the delete itself flush and
    # compact — the sweep must cut inside those windows, not just
    # between log appends.
    assert tree.run_count > 0
    report = lsm_crash_sweep(scenario=scenario, max_points=4)
    assert report.ok, report.failures
