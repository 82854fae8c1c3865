"""Exhaustive media-fault sweep: every page x every read-fault kind.

The analogue of :func:`repro.faults.sweep.crash_point_sweep` for media
failures, on the same deterministic scenario.  :func:`media_sweep`
hands the recoverable bulk delete (with full-page-write logging, so
the WAL can repair what it touched) to the sweep kernel's media
skeleton (:func:`repro.faults.kernel.media_sweep`), which arms every
read-fault kind (transient / latent / stuck) on every live
pre-statement page and requires one of exactly two outcomes:

* **healed** — the statement completes; a post-run scrub heals any
  still-damaged pages the statement never touched; the final state is
  bit-equivalent to the oracle and internally consistent, or
* **aborted** — a typed :class:`~repro.errors.MediaError` escapes
  *before the statement modified anything* (stuck bits are caught by
  the ``require_scrubbed`` gate, which quarantines the page); the
  database still equals its pre-statement image, and after the
  operator "replaces the medium" (``restore_page`` from backup) a
  fault-free re-run reaches the oracle.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.faults import kernel
from repro.faults.kernel import MediaPointOutcome, MediaSweepReport
from repro.faults.plan import READ_FAULT_KINDS
from repro.faults.sweep import RecoverableStatement, SweepScenario
from repro.media.retry import MediaPolicy

__all__ = ["MediaPointOutcome", "MediaSweepReport", "media_sweep"]


def media_sweep(
    scenario: Optional[SweepScenario] = None,
    max_points: Optional[int] = None,
    policy: Optional[MediaPolicy] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> MediaSweepReport:
    """Sweep every read-fault kind over every (or ``max_points`` evenly
    sampled) pre-statement page of the scenario's bulk delete."""
    return kernel.media_sweep(
        RecoverableStatement(scenario or SweepScenario(), True),
        READ_FAULT_KINDS, max_points, log_fn, policy,
    )
