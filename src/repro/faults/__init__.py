"""Systematic fault injection for the recovery path.

The paper's §3.2 recovery story — roll *forward* to completion after a
failure — is only as good as the set of failure points it was tested
against.  This package replaces hand-picked crash points with a
*fault plan* executed by a :class:`FaultInjector` that hooks the three
layers where durability actually happens:

* :class:`~repro.recovery.wal.WriteAheadLog` — every forced append is a
  *durable event*; the injector can crash right after one, drop the
  record (the force never completed), or leave a torn tail record,
* :class:`~repro.storage.disk.SimulatedDisk` — every page write is a
  durable event; the injector can crash after one or tear it (half new
  image, half old),
* :class:`~repro.storage.buffer.BufferPool` — every crash drops the
  unflushed buffer contents, exactly like a power failure.

On top of the injector, the sweep kernel (:mod:`repro.faults.kernel`)
runs a scenario's statement once to count its durable events, then
re-runs it with a crash injected after *every* k-th event, asserting
each time that the restarted database equals the no-crash oracle;
:func:`crash_point_sweep` is the heap-table scenario (which also takes
a second crash during recovery).
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    LATENT,
    READ_FAULT_KINDS,
    STUCK,
    TRANSIENT,
    FaultPlan,
    SimulatedCrash,
)

# The sweep driver imports repro.recovery (which imports this package
# for SimulatedCrash); resolve it lazily to keep the import graph
# acyclic.
_SWEEP_NAMES = (
    "SweepReport",
    "SweepScenario",
    "capture_state",
    "crash_point_sweep",
    "integrity_problems",
)


def __getattr__(name: str):
    if name in _SWEEP_NAMES:
        from repro.faults import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FaultInjector",
    "FaultPlan",
    "LATENT",
    "READ_FAULT_KINDS",
    "STUCK",
    "SimulatedCrash",
    "TRANSIENT",
    "SweepReport",
    "SweepScenario",
    "capture_state",
    "crash_point_sweep",
    "integrity_problems",
]
