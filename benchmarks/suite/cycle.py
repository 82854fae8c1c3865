"""One pass of a workload: set-up, measured statements, verification.

A workload body is a plain function of a :class:`Cycle`.  It brackets
every call it makes into the engine with one of three span roles:

* ``setup``   — generating inputs and building databases (``setup_s``),
* ``measure`` — a *statement*: host time plus the simulated clock and
  ``DiskStats``/``BufferStats`` deltas of the database it ran against,
* ``verify``  — output checks, counted into attempted/failed.

The same body runs untraced (end-to-end numbers), with ``db.observe()``
attached (``op.*`` attribution and the observer's overhead), and under
``cProfile`` (per-package host shares); the modes differ only in what
``measure`` attaches around the statement, never in the statement.
"""

from __future__ import annotations

import cProfile
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, List, Optional

from benchmarks.suite.hostclock import SpanRecorder

#: Observer span kinds reported on their own; every other kind (and the
#: statement's own root span) is ``other``.  The five buckets are
#: exclusive times, so they sum to the statement's simulated time.
OP_KINDS = ("bd", "sort", "scan", "flush")


def _as_dict(stats: Any) -> Dict[str, float]:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


@dataclass
class Statement:
    """What one measured statement cost on both clocks."""

    name: str
    host_s: float = 0.0
    #: Simulated results count into the workload's ``sim_*`` totals
    #: unless the workload reports them under their own metric.
    counts_sim: bool = True
    has_db: bool = False
    sim_ms: float = 0.0
    disk: Dict[str, float] = field(default_factory=dict)
    pool: Dict[str, float] = field(default_factory=dict)
    space_pages: int = 0
    #: Which of the cycle's databases the statement ran against
    #: (consecutive statements on one database share a serial).
    db_serial: int = 0
    #: Rows/ops the statement processed.
    units: int = 1
    #: Per-layer host metrics derived from this statement: metric name
    #: -> factor, contributing ``host_s * factor`` (``1e9 / rows`` for
    #: a ``*_row_ns`` metric; two statements may feed one metric).
    feeds: Dict[str, float] = field(default_factory=dict)
    #: Exclusive simulated ms / reads / writes / span count per
    #: observer span kind (observed cycle only).
    ops: Dict[str, Dict[str, float]] = field(default_factory=dict)
    obs_counters: Dict[str, float] = field(default_factory=dict)

    def simulated(self) -> Dict[str, Any]:
        """The deterministic part (identical on every cycle)."""
        return {
            "sim_ms": self.sim_ms,
            "disk": self.disk,
            "pool": self.pool,
            "space_pages": self.space_pages,
        }


@dataclass
class Check:
    label: str
    attempted: int
    failed: int
    detail: str = ""


class Cycle:
    """Context handed to a workload body for one pass."""

    def __init__(
        self,
        recorder: SpanRecorder,
        sizes: Dict[str, int],
        seed: int,
        observe: bool = False,
        profile: Optional[cProfile.Profile] = None,
        probing: bool = False,
    ) -> None:
        self.recorder = recorder
        self.sizes = sizes
        self.seed = seed
        self.observe = observe
        self.profile = profile
        #: True on the traced run's first pass: workloads may run extra
        #: ``probe`` statements (scaling probes, baselines) that are
        #: not part of the measured section.
        self.probing = probing
        self.statements: List[Statement] = []
        self.checks: List[Check] = []
        #: Deterministic per-layer values read from result objects.
        self.notes: Dict[str, float] = {}
        #: Host-clock per-layer values measured outside a statement.
        self.host_notes: Dict[str, float] = {}
        self._last_db: Any = None
        self._db_serial = 0

    # -- span roles ----------------------------------------------------
    def setup(self, name: str):
        return self.recorder.span(name, "setup")

    def verify(self, name: str):
        return self.recorder.span(name, "verify")

    def probe(self, name: str):
        return self.recorder.span(name, "probe")

    @contextmanager
    def measure(
        self,
        name: str,
        db: Any = None,
        units: int = 1,
        feeds: Optional[Dict[str, float]] = None,
        counts_sim: bool = True,
    ) -> Iterator[Statement]:
        stmt = Statement(
            name=name, units=units, feeds=dict(feeds or {}),
            counts_sim=counts_sim, has_db=db is not None,
        )
        if db is not None:
            if db is not self._last_db:
                self._last_db = db
                self._db_serial += 1
            stmt.db_serial = self._db_serial
            clock_before = db.clock.now_ms
            disk_before = db.disk.stats.snapshot()
            pool_before = db.pool.stats.snapshot()
        observer = root = None
        if self.observe and db is not None:
            observer = db.observe()
            root = observer.span(f"statement {name}", kind="run")
            root.__enter__()
        with self.recorder.span(name, "measure") as span:
            if self.profile is not None:
                self.profile.enable()
            try:
                yield stmt
            finally:
                if self.profile is not None:
                    self.profile.disable()
        stmt.host_s = span.duration_s
        if root is not None:
            root.__exit__(None, None, None)
            db.unobserve()
            _fold_observer(stmt, observer, root.span)
        if db is not None:
            stmt.sim_ms = db.clock.now_ms - clock_before
            stmt.disk = _as_dict(db.disk.stats.delta_since(disk_before))
            stmt.pool = _as_dict(db.pool.stats.delta_since(pool_before))
            stmt.space_pages = db.disk.num_pages
        self.statements.append(stmt)

    def close(self) -> None:
        """Drop the last database so a finished cycle holds no pages."""
        self._last_db = None

    # -- output checks ---------------------------------------------------
    def check(self, label: str, ok: bool, detail: str = "") -> None:
        """One pass/fail output check."""
        self.count(label, 1, 0 if ok else 1, detail)

    def count(
        self, label: str, attempted: int, failed: int = 0, detail: str = ""
    ) -> None:
        """``attempted`` operations of which ``failed`` went wrong."""
        self.checks.append(
            Check(label, attempted, min(failed, attempted), detail)
        )

    def note(self, name: str, value: float) -> None:
        """Add ``value`` into a deterministic per-layer metric."""
        self.notes[name] = self.notes.get(name, 0) + value

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)


def _fold_observer(stmt: Statement, observer: Any, root: Any) -> None:
    """Exclusive simulated cost per span kind under ``root``."""
    for span in root.walk():
        bucket = span.kind if span.kind in OP_KINDS else "other"
        into = stmt.ops.setdefault(
            bucket, {"sim_ms": 0.0, "reads": 0, "writes": 0, "spans": 0}
        )
        own_io = span.self_io
        into["sim_ms"] += span.self_ms
        into["reads"] += own_io.reads
        into["writes"] += own_io.writes
        into["spans"] += 1
    for name in ("sort.runs", "sort.spill_pages"):
        stmt.obs_counters[name] = observer.metrics.counter(name).value
