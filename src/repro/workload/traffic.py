"""Multi-session OLTP traffic interleaved with a running bulk delete.

The paper's §2.4/§3 concurrency story — side-files, off-line index
maintenance, unique-index-first — promises that a vertical bulk delete
can run *beside* live load.  This module turns that promise into a
measured quantity: a seeded multi-tenant driver replays point reads,
pad updates and inserts from many simulated sessions while a delete
strategy runs on the same engine, and every user operation gets an
honest latency on the simulated clock.

The engine is single-threaded, so concurrency is cooperative and
exactly reproducible: the delete executes as a sequence of *slices*
(the §3 critical phase, then one propagation step per off-line index —
or one chunk per ``DELETE ... LIMIT n`` batch for the production
baseline), and user operations are serviced between slices, in arrival
order.  An operation that arrives while a slice is executing waits
until the slice ends; that wait is charged to the operation's latency
and attributed to the delete:

* ``lock`` — the slice held the table X lock (the critical phase);
  the operation's row lock request would have raised
  :class:`~repro.errors.LockConflictError` (``repro.txn.locks``),
* ``lane`` — the slice occupied the engine's only execution lane
  (latch/serialization wait during propagation or a chunk),

while *buffer pressure* — the extra misses a user operation pays
because the delete swept its hot pages out of the shared pool — shows
up in the operation's own service time and is reported against the
pre-delete baseline.

Every stochastic choice (think times, operation mix, key picks) flows
from :class:`TrafficConfig.seed` through per-session
``random.Random`` streams, so a fixed seed fixes the entire timeline:
latencies, histograms and percentiles are bit-reproducible.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.database import Database
from repro.core.chunked import ChunkedDelete
from repro.errors import ReproError
from repro.storage.rid import RID
from repro.txn.coordinator import (
    BulkDeleteCoordinator,
    Phase,
    PropagationMode,
    UpdateRouter,
)
from repro.txn.locks import LockMode
from repro.txn.transactions import Transaction, TransactionManager
from repro.workload.generator import INT_COLUMNS, Workload

#: Stall categories an operation's wait can be attributed to.
STALL_LOCK = "lock"
STALL_LANE = "lane"


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of one traffic run (all randomness flows from ``seed``)."""

    sessions: int = 8
    ops_per_session: int = 40
    #: Mean think time between a session's operations (exponential
    #: inter-arrival in a closed loop: each session keeps at most one
    #: operation outstanding, as a connection-pooled client would).
    think_ms: float = 20.0
    #: Operation mix; the insert fraction is the remainder.
    read_fraction: float = 0.6
    update_fraction: float = 0.25
    #: The delete statement is submitted when this many user operations
    #: have completed (``None``: one third of the total, so the report
    #: has before/during/after windows).
    delete_after_ops: Optional[int] = None
    seed: int = 1042

    def __post_init__(self) -> None:
        if self.sessions < 1 or self.ops_per_session < 1:
            raise ReproError("traffic needs >= 1 session and >= 1 op each")
        if self.think_ms <= 0:
            raise ReproError("think_ms must be positive")
        if not (
            0.0 <= self.read_fraction
            and 0.0 <= self.update_fraction
            and self.read_fraction + self.update_fraction <= 1.0
        ):
            raise ReproError("operation mix fractions must sum to <= 1")

    @property
    def total_ops(self) -> int:
        return self.sessions * self.ops_per_session

    def session_rng(self, session_id: int) -> random.Random:
        """The per-session random stream, derived from the config seed.

        The derivation is plain arithmetic (no ``hash()``), so it is
        stable across processes and PYTHONHASHSEED values.
        """
        return random.Random(self.seed * 1_000_003 + session_id)


# ----------------------------------------------------------------------
# exact latency histograms
# ----------------------------------------------------------------------
class LatencyHistogram:
    """An exact histogram of simulated-time latencies.

    Simulated time is deterministic, so there is no need to bucket:
    the histogram stores an exact count per distinct value, percentiles
    are nearest-rank over the true multiset, and ``total_ms`` is the
    correctly rounded (order-independent) sum.  Merging per-session
    histograms therefore reproduces the global histogram exactly.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[float, int] = {}

    def record(self, value_ms: float) -> None:
        if value_ms < 0:
            raise ReproError("latency cannot be negative")
        self._counts[value_ms] = self._counts.get(value_ms, 0) + 1

    # -- readback ------------------------------------------------------
    @property
    def count(self) -> int:
        return sum(self._counts.values())

    @property
    def total_ms(self) -> float:
        """Order-independent exact sum (``math.fsum`` over the multiset)."""
        return math.fsum(
            value * n for value, n in sorted(self._counts.items())
        )

    @property
    def max_ms(self) -> float:
        return max(self._counts) if self._counts else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (exact; ``p`` in (0, 100])."""
        if not 0.0 < p <= 100.0:
            raise ReproError("percentile wants p in (0, 100]")
        total = self.count
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * total))
        seen = 0
        for value in sorted(self._counts):
            seen += self._counts[value]
            if seen >= rank:
                return value
        return self.max_ms  # pragma: no cover - unreachable

    def counts(self) -> Dict[float, int]:
        return dict(self._counts)

    @classmethod
    def merged(
        cls, histograms: Sequence["LatencyHistogram"]
    ) -> "LatencyHistogram":
        """A new histogram holding every input's multiset (one pass)."""
        out = cls()
        counts = out._counts
        for hist in histograms:
            for value, n in hist._counts.items():
                counts[value] = counts.get(value, 0) + n
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyHistogram(n={self.count}, "
            f"p50={self.percentile(50):.1f}ms, "
            f"p99={self.percentile(99):.1f}ms)"
        )


# ----------------------------------------------------------------------
# per-operation / per-slice records
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    """One user operation's full latency accounting (simulated ms).

    Five clock readings tell the whole story —
    ``arrival <= stall_from <= stall_to <= start <= end`` — and every
    duration is *derived* from them, so the accounting has no float-sum
    residue to epsilon away:

    * ``delete_stall_ms``  = stall_to − stall_from (the one delete
      slice the op waited through: either running at arrival, or
      queued ahead of it under FCFS),
    * ``service_ms``       = end − start (the op's own work),
    * ``peer_wait_ms``     = the rest of the queueing delay (waiting
      behind other sessions' operations).
    """

    session: int
    seq: int
    kind: str  # read | update | insert
    key: Optional[int]
    values: Optional[Tuple[object, ...]]
    arrival_ms: float
    #: The delete-slice interval this op waited through (both equal to
    #: ``arrival_ms`` when the delete never delayed it).
    stall_from_ms: float
    stall_to_ms: float
    start_ms: float
    end_ms: float
    #: Why the op waited for the delete (None when it did not).
    stall_kind: Optional[str]  # STALL_LOCK | STALL_LANE | None
    io_ms: float
    buffer_misses: int
    phase: str = "before"  # before | during | after

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.arrival_ms

    @property
    def service_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def delete_stall_ms(self) -> float:
        return self.stall_to_ms - self.stall_from_ms

    @property
    def peer_wait_ms(self) -> float:
        return (self.start_ms - self.arrival_ms) - self.delete_stall_ms


@dataclass
class SliceRecord:
    """One delete slice the engine ran between user operations."""

    label: str
    stall_kind: str  # what a concurrent op's wait is attributed to
    start_ms: float
    end_ms: float

    @property
    def elapsed_ms(self) -> float:
        return self.end_ms - self.start_ms


# ----------------------------------------------------------------------
# primitive user operations (shared with the replay/regression tests)
# ----------------------------------------------------------------------
def apply_point_read(
    db: Database, table_name: str, column: str, key: int
) -> Tuple[object, ...]:
    """Point read by key: driving-index lookup, then one heap read."""
    table = db.table(table_name)
    index = table.indexes_on(column)[0]
    rids = index.tree.search(key)
    if not rids:
        raise ReproError(f"point read of absent key {key}")
    return db.read(table_name, RID.unpack(rids[0]))


def apply_pad_update(
    db: Database, table_name: str, column: str, key: int
) -> RID:
    """Update the padding column of the row with ``key`` (in place).

    Only the non-indexed pad changes, so the write is one heap page and
    no index maintenance — the classic "touch a status column" OLTP
    update.  The new pad is a pure function of the old one (x↔y), so a
    replayed sequence produces identical bytes.
    """
    table = db.table(table_name)
    index = table.indexes_on(column)[0]
    rids = index.tree.search(key)
    if not rids:
        raise ReproError(f"pad update of absent key {key}")
    rid = RID.unpack(rids[0])
    values = list(db.read(table_name, rid))
    pad = str(values[-1])
    values[-1] = ("y" if pad[:1] == "x" else "x") * len(pad)
    table.heap.update(rid, table.serializer.pack(tuple(values)))
    return rid


def apply_plain_insert(
    db: Database, table_name: str, values: Sequence[object]
) -> RID:
    """Insert one row the normal way (every index on-line)."""
    return db.insert(table_name, values)


# ----------------------------------------------------------------------
# delete strategies (what runs in the slices)
# ----------------------------------------------------------------------
class SideFileVerticalStrategy:
    """§3 concurrent vertical delete: critical phase + side-file
    propagation, one slice per phase step."""

    name = "sidefile"

    def __init__(self, mode: PropagationMode = PropagationMode.SIDE_FILE):
        self.mode = mode
        self.coordinator: Optional[BulkDeleteCoordinator] = None
        self._router: Optional[UpdateRouter] = None
        self._db: Optional[Database] = None

    def bind(
        self,
        db: Database,
        table_name: str,
        column: str,
        keys: Sequence[int],
        tm: TransactionManager,
    ) -> None:
        self._db = db
        self.coordinator = BulkDeleteCoordinator(
            db, table_name, column, keys, txn_manager=tm, mode=self.mode
        )
        self._router = UpdateRouter(db, self.coordinator)

    def slices(self) -> Iterator[Tuple[str, str, Callable[[], None]]]:
        coord = self.coordinator
        assert coord is not None and self._db is not None

        def critical() -> None:
            coord.begin()
            coord.process_critical_phase()
            coord.commit_critical()

        yield ("bd critical phase", STALL_LOCK, critical)
        while True:
            pending = coord.pending_indexes()
            if not pending:
                break
            name = pending[0]
            yield (
                f"bd propagate {name}",
                STALL_LANE,
                lambda n=name: None if coord.process_index(n) else None,
            )
        yield ("bd final flush", STALL_LANE, self._db.flush)

    def insert(
        self, txn: Transaction, table_name: str, values: Sequence[object]
    ) -> RID:
        coord = self.coordinator
        assert coord is not None and self._db is not None
        if coord.phase is Phase.PROPAGATION:
            assert self._router is not None
            return self._router.insert(txn, table_name, values)
        return apply_plain_insert(self._db, table_name, values)

    @property
    def records_deleted(self) -> int:
        assert self.coordinator is not None
        return self.coordinator.report.records_deleted


class ChunkedLimitStrategy:
    """Production baseline: ``DELETE ... LIMIT n`` chunks with durable
    progress accounting; every index stays on-line throughout."""

    name = "chunked"

    def __init__(self, chunk_rows: int = 64):
        self.chunk_rows = chunk_rows
        self.executor: Optional[ChunkedDelete] = None
        self._db: Optional[Database] = None

    def bind(
        self,
        db: Database,
        table_name: str,
        column: str,
        keys: Sequence[int],
        tm: TransactionManager,
    ) -> None:
        self._db = db
        self.executor = ChunkedDelete(
            db, table_name, column, keys,
            chunk_rows=self.chunk_rows, txn_manager=tm,
        )

    def slices(self) -> Iterator[Tuple[str, str, Callable[[], None]]]:
        ex = self.executor
        assert ex is not None and self._db is not None
        chunk = 0
        while not ex.done:
            chunk += 1
            yield (
                f"chunk {chunk}",
                STALL_LANE,
                lambda: None if ex.run_chunk() else None,
            )
        yield ("chunked final flush", STALL_LANE, self._db.flush)

    def insert(
        self, txn: Transaction, table_name: str, values: Sequence[object]
    ) -> RID:
        assert self._db is not None
        return apply_plain_insert(self._db, table_name, values)

    @property
    def records_deleted(self) -> int:
        assert self.executor is not None
        return self.executor.result.records_deleted


def make_strategy(
    name: Optional[str], chunk_rows: int = 64
) -> Optional[object]:
    """Build a delete strategy by name (``None`` disables the delete)."""
    if name is None:
        return None
    if name == "sidefile":
        return SideFileVerticalStrategy()
    if name == "chunked":
        return ChunkedLimitStrategy(chunk_rows=chunk_rows)
    raise ReproError(f"unknown delete strategy {name!r}")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class OltpResult:
    """Everything one traffic run measured."""

    strategy: Optional[str]
    config: TrafficConfig
    ops: List[OpRecord] = field(default_factory=list)
    slices: List[SliceRecord] = field(default_factory=list)
    per_session: Dict[int, LatencyHistogram] = field(default_factory=dict)
    global_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    delete_submit_ms: Optional[float] = None
    delete_end_ms: Optional[float] = None
    records_deleted: int = 0
    #: Ordered running sums mirroring the metric timers (same addends,
    #: same order — compared bit-exactly in :meth:`reconcile`).
    latency_sum_ordered: float = 0.0
    service_sum_ordered: float = 0.0
    slice_sum_ordered: float = 0.0
    #: Span objects captured per op / per slice when observed.
    op_spans: List[object] = field(default_factory=list)
    slice_spans: List[object] = field(default_factory=list)
    #: The workload the run executed against (for reconciliation).
    workload: Optional[Workload] = None

    @property
    def delete_busy_ms(self) -> float:
        return math.fsum(s.elapsed_ms for s in self.slices)

    def ops_in_phase(self, phase: str) -> List[OpRecord]:
        return [op for op in self.ops if op.phase == phase]

    def phase_hist(self, phase: str) -> LatencyHistogram:
        hist = LatencyHistogram()
        for op in self.ops_in_phase(phase):
            hist.record(op.latency_ms)
        return hist

    # ------------------------------------------------------------------
    def reconcile(self, obs: Optional[object] = None) -> List[str]:
        """Exact cross-checks of the run's numbers; empty means clean.

        Histograms must equal the merged per-session histograms; the
        stall + queue + service decomposition must reproduce every
        operation's latency exactly; and, when the run was observed,
        counts and simulated-millisecond totals must match the
        ``oltp.*`` metrics and the captured span totals bit-for-bit
        (same addends in the same order — no epsilon).
        """
        problems: List[str] = []
        merged = LatencyHistogram.merged(list(self.per_session.values()))
        if merged != self.global_hist:
            problems.append("merged per-session histograms != global")
        if self.global_hist.count != len(self.ops):
            problems.append("histogram count != op count")
        for op in self.ops:
            if not (
                op.arrival_ms <= op.stall_from_ms <= op.stall_to_ms
                <= op.start_ms <= op.end_ms
            ):
                problems.append(
                    f"op s{op.session}#{op.seq}: timeline out of order "
                    f"({op.arrival_ms!r}, {op.stall_from_ms!r}, "
                    f"{op.stall_to_ms!r}, {op.start_ms!r}, "
                    f"{op.end_ms!r})"
                )
                break
            if op.delete_stall_ms > 0 and op.stall_kind is None:
                problems.append(
                    f"op s{op.session}#{op.seq}: stall without a cause"
                )
                break
        if obs is not None:
            problems.extend(self._reconcile_obs(obs))
        return problems

    def _reconcile_obs(self, obs: object) -> List[str]:
        problems: List[str] = []
        metrics = obs.metrics  # type: ignore[attr-defined]
        ops_counted = metrics.counter("oltp.ops").value
        if ops_counted != len(self.ops):
            problems.append(
                f"oltp.ops metric {ops_counted} != {len(self.ops)} ops"
            )
        pairs = (
            ("oltp.latency_ms", self.latency_sum_ordered),
            ("oltp.service_ms", self.service_sum_ordered),
            ("oltp.delete.busy_ms", self.slice_sum_ordered),
        )
        for name, expected in pairs:
            total = metrics.timer(name).total_ms
            if total != expected:  # lint: allow(float-cost-eq)
                problems.append(
                    f"{name} metric {total!r} != ordered sum {expected!r}"
                )
        if len(self.op_spans) != len(self.ops):
            problems.append("captured op spans != op count")
        else:
            for op, span in zip(self.ops, self.op_spans):
                elapsed = span.elapsed_ms  # type: ignore[attr-defined]
                if elapsed != op.service_ms:  # lint: allow(float-cost-eq)
                    problems.append(
                        f"op s{op.session}#{op.seq}: span {elapsed!r} != "
                        f"service {op.service_ms!r}"
                    )
                    break
        if len(self.slice_spans) != len(self.slices):
            problems.append("captured slice spans != slice count")
        else:
            for rec, span in zip(self.slices, self.slice_spans):
                elapsed = span.elapsed_ms  # type: ignore[attr-defined]
                if elapsed != rec.elapsed_ms:  # lint: allow(float-cost-eq)
                    problems.append(
                        f"slice {rec.label!r}: span {elapsed!r} != "
                        f"{rec.elapsed_ms!r}"
                    )
                    break
        return problems


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
class _Session:
    __slots__ = ("sid", "rng", "remaining", "seq", "next_arrival_ms")

    def __init__(self, sid: int, rng: random.Random, ops: int) -> None:
        self.sid = sid
        self.rng = rng
        self.remaining = ops
        self.seq = 0
        self.next_arrival_ms = 0.0


class TrafficDriver:
    """Runs one traffic timeline against a built workload."""

    def __init__(
        self,
        workload: Workload,
        config: TrafficConfig,
        strategy: Optional[object] = None,
        keys: Optional[Sequence[int]] = None,
        fraction: float = 0.15,
    ) -> None:
        self.workload = workload
        self.config = config
        self.db = workload.db
        self.table_name = "R"
        self.column = "A"
        self.tm = TransactionManager()
        self.strategy = strategy
        self.keys = (
            list(keys) if keys is not None
            else workload.delete_keys(fraction)
        )
        deleted = set(self.keys)
        #: Keys user reads/updates may target: rows the delete never
        #: touches, in generation order (stable across strategies).
        self.survivors = [a for a in workload.a_values if a not in deleted]
        if not self.survivors:
            raise ReproError("traffic needs surviving rows to read")
        #: Fresh integers for inserts start above the generator's value
        #: space, so they collide with no existing column value.
        cfg = workload.config
        self._fresh_base = max(cfg.record_count * 10, 1 << 22)
        pad_width = cfg.record_bytes - 8 * len(INT_COLUMNS)
        self._pad = "x" * min(8, pad_width)
        self.result = OltpResult(
            strategy=getattr(strategy, "name", None),
            config=config,
            workload=workload,
        )

    # ------------------------------------------------------------------
    # deterministic per-session op generation
    # ------------------------------------------------------------------
    def _draw_op(self, sess: _Session) -> Tuple[str, Optional[int],
                                                Optional[Tuple[object, ...]]]:
        cfg = self.config
        roll = sess.rng.random()
        if roll < cfg.read_fraction:
            kind = "read"
        elif roll < cfg.read_fraction + cfg.update_fraction:
            kind = "update"
        else:
            kind = "insert"
        if kind in ("read", "update"):
            key = self.survivors[sess.rng.randrange(len(self.survivors))]
            return kind, key, None
        values = self._fresh_values(sess)
        return kind, int(values[0]), values  # type: ignore[arg-type]

    def _fresh_values(self, sess: _Session) -> Tuple[object, ...]:
        """A brand-new row: every integer column gets a value above the
        generator's space, unique per (session, op, column) — collision
        free without coordination between sessions."""
        slot = sess.sid * self.config.ops_per_session + sess.seq
        base = self._fresh_base + slot * len(INT_COLUMNS)
        ints = tuple(base + i for i in range(len(INT_COLUMNS)))
        return ints + (self._pad,)

    def _think(self, sess: _Session) -> float:
        return sess.rng.expovariate(1.0 / self.config.think_ms)

    # ------------------------------------------------------------------
    # the timeline
    # ------------------------------------------------------------------
    def run(self) -> OltpResult:
        """Single-queue FCFS over one engine lane.

        User operations and the delete's next slice are queued items
        ordered by ready time (an op's arrival; the end of the delete's
        previous slice): the earlier one runs first, user ops winning
        ties.  The delete therefore neither starves (its slice jumps
        ahead of later-arriving ops) nor preempts (ops that arrived
        while a slice ran are drained before the next slice) — the
        fair-share behaviour of a real scheduler, deterministically.
        The sessions wait in a heap keyed on (next arrival, session
        id), so picking the next op costs O(log sessions).
        """
        db, cfg = self.db, self.config
        obs = db.obs
        clock = db.clock
        sessions = [
            _Session(sid, cfg.session_rng(sid), cfg.ops_per_session)
            for sid in range(cfg.sessions)
        ]
        for sess in sessions:
            sess.next_arrival_ms = clock.now_ms + self._think(sess)
        delete_after = (
            cfg.delete_after_ops
            if cfg.delete_after_ops is not None
            else max(1, cfg.total_ops // 3)
        )
        slices: Optional[Iterator[Tuple[str, str, Callable[[], None]]]] = None
        slices_done = False
        delete_ready = math.inf
        completed = 0

        # Sessions that still have operations, keyed on (next arrival,
        # sid): the head is the earliest arrival, the lower sid on a tie.
        queue = [(s.next_arrival_ms, s.sid, s) for s in sessions]
        heapq.heapify(queue)

        while True:
            delete_active = slices is not None and not slices_done
            if not queue and not delete_active:
                if self.strategy is not None and slices is None:
                    # Traffic ended before the trigger count: the
                    # delete still runs (uncontended drain).
                    slices = self._start_delete()
                    delete_ready = clock.now_ms
                    continue
                break
            sess = (
                queue[0][2]
                if queue and queue[0][0] <= clock.now_ms
                else None
            )
            if delete_active and (
                sess is None or delete_ready < sess.next_arrival_ms
            ):
                slices_done = not self._run_slice(slices, obs)
                delete_ready = (
                    math.inf if slices_done else clock.now_ms
                )
                continue
            if sess is not None:
                heapq.heappop(queue)
                self._service(sess, obs)
                if sess.remaining > 0:
                    heapq.heappush(
                        queue, (sess.next_arrival_ms, sess.sid, sess)
                    )
                completed += 1
                if (
                    self.strategy is not None
                    and slices is None
                    and completed >= delete_after
                ):
                    slices = self._start_delete()
                    delete_ready = clock.now_ms
                continue
            # Engine idle (delete inactive or not yet ready): jump to
            # the next arrival.
            clock.advance_ms(queue[0][0] - clock.now_ms)

        if self.strategy is not None:
            self.result.records_deleted = (
                self.strategy.records_deleted  # type: ignore[attr-defined]
            )
            # Classify only now: ops serviced after the delete drained
            # still need their phase.
            self._classify_phases()
        return self.result

    def _start_delete(self) -> Iterator[Tuple[str, str, Callable[[], None]]]:
        assert self.strategy is not None
        self.result.delete_submit_ms = self.db.clock.now_ms
        self.strategy.bind(  # type: ignore[attr-defined]
            self.db, self.table_name, self.column, self.keys, self.tm
        )
        return self.strategy.slices()  # type: ignore[attr-defined]

    def _run_slice(
        self,
        slices: Iterator[Tuple[str, str, Callable[[], None]]],
        obs: Optional[object],
    ) -> bool:
        """Run the next delete slice; False when the delete finished."""
        step = next(slices, None)
        if step is None:
            self.result.delete_end_ms = self.db.clock.now_ms
            return False
        label, stall_kind, thunk = step
        start = self.db.clock.now_ms
        if obs is not None:
            with obs.span(  # type: ignore[attr-defined]
                f"oltp[{label}]", kind="delete", target=self.table_name
            ) as open_span:
                thunk()
            self.result.slice_spans.append(open_span.span)
        else:
            thunk()
        record = SliceRecord(
            label=label,
            stall_kind=stall_kind,
            start_ms=start,
            end_ms=self.db.clock.now_ms,
        )
        self.result.slices.append(record)
        self.result.slice_sum_ordered += record.elapsed_ms
        if obs is not None:
            obs.on_delete_slice(  # type: ignore[attr-defined]
                label, record.elapsed_ms
            )
        return True

    def _classify_phases(self) -> None:
        submit = self.result.delete_submit_ms
        end = self.result.delete_end_ms
        assert submit is not None and end is not None
        for op in self.result.ops:
            if op.end_ms <= submit:
                op.phase = "before"
            elif op.arrival_ms >= end:
                op.phase = "after"
            else:
                op.phase = "during"

    # ------------------------------------------------------------------
    def _service(self, sess: _Session, obs: Optional[object]) -> None:
        db = self.db
        clock = db.clock
        arrival = sess.next_arrival_ms
        kind, key, values = self._draw_op(sess)
        stall_from, stall_to, stall_kind = self._stall_for(arrival)
        start = clock.now_ms
        io0 = db.disk.stats.io_time_ms
        b0_misses = db.pool.stats.misses
        txn = self.tm.begin()
        try:
            if obs is not None:
                with obs.span(  # type: ignore[attr-defined]
                    f"user[{kind}] s{sess.sid}", kind="op",
                    target=self.table_name, session=sess.sid,
                ) as open_span:
                    self._apply(txn, kind, key, values)
                self.result.op_spans.append(open_span.span)
            else:
                self._apply(txn, kind, key, values)
        finally:
            self.tm.commit(txn)
        end = clock.now_ms
        record = OpRecord(
            session=sess.sid,
            seq=sess.seq,
            kind=kind,
            key=key,
            values=values,
            arrival_ms=arrival,
            stall_from_ms=stall_from,
            stall_to_ms=stall_to,
            start_ms=start,
            end_ms=end,
            stall_kind=stall_kind,
            io_ms=db.disk.stats.io_time_ms - io0,
            buffer_misses=db.pool.stats.misses - b0_misses,
        )
        self.result.ops.append(record)
        hist = self.result.per_session.setdefault(
            sess.sid, LatencyHistogram()
        )
        hist.record(record.latency_ms)
        self.result.global_hist.record(record.latency_ms)
        self.result.latency_sum_ordered += record.latency_ms
        self.result.service_sum_ordered += record.service_ms
        if obs is not None:
            obs.on_user_op(  # type: ignore[attr-defined]
                sess.sid, kind, record.latency_ms, record.service_ms,
                stall_kind, record.delete_stall_ms,
            )
        sess.seq += 1
        sess.remaining -= 1
        if sess.remaining > 0:
            sess.next_arrival_ms = end + self._think(sess)

    def _stall_for(
        self, arrival_ms: float
    ) -> Tuple[float, float, Optional[str]]:
        """The delete-slice interval an op arriving at ``arrival_ms``
        waited through before its service, and why.

        Under FCFS at most one completed slice can delay a given op:
        the one running at its arrival, or the one queued ahead of it
        (ready before the op arrived).  Every recorded slice finished
        before the op's service starts, so the wait it contributed is
        the slice's overlap with ``[arrival, start)``.
        """
        for rec in self.result.slices:
            if rec.end_ms > arrival_ms:
                return (
                    max(arrival_ms, rec.start_ms),
                    rec.end_ms,
                    rec.stall_kind,
                )
        return arrival_ms, arrival_ms, None

    def _apply(
        self,
        txn: Transaction,
        kind: str,
        key: Optional[int],
        values: Optional[Tuple[object, ...]],
    ) -> None:
        locks = self.tm.locks
        if kind == "read":
            assert key is not None
            locks.lock_row(txn.txn_id, self.table_name, key, LockMode.S)
            apply_point_read(self.db, self.table_name, self.column, key)
        elif kind == "update":
            assert key is not None
            locks.lock_row(txn.txn_id, self.table_name, key, LockMode.X)
            apply_pad_update(self.db, self.table_name, self.column, key)
        elif kind == "insert":
            assert values is not None
            if self.strategy is not None and self._delete_active():
                self.strategy.insert(  # type: ignore[attr-defined]
                    txn, self.table_name, values
                )
            else:
                locks.lock_row(
                    txn.txn_id, self.table_name, tuple(values[:1]),
                    LockMode.X,
                )
                apply_plain_insert(self.db, self.table_name, values)
        else:  # pragma: no cover - _draw_op emits only the three kinds
            raise ReproError(f"unknown op kind {kind!r}")

    def _delete_active(self) -> bool:
        return (
            self.result.delete_submit_ms is not None
            and self.result.delete_end_ms is None
        )


def run_oltp(
    workload: Workload,
    config: TrafficConfig,
    strategy: Optional[str] = "sidefile",
    fraction: float = 0.15,
    chunk_rows: int = 64,
    keys: Optional[Sequence[int]] = None,
) -> OltpResult:
    """Run one traffic timeline; see :class:`TrafficDriver`."""
    driver = TrafficDriver(
        workload,
        config,
        strategy=make_strategy(strategy, chunk_rows=chunk_rows),
        keys=keys,
        fraction=fraction,
    )
    return driver.run()


# ----------------------------------------------------------------------
# the interference report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseStats:
    """Latency summary of one delete-relative phase of the run."""

    phase: str
    count: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    mean_io_ms: float
    mean_misses: float


@dataclass(frozen=True)
class InterferenceReport:
    """User-visible cost of the concurrent delete, attributed.

    Stall totals cover operations that overlapped the delete window;
    buffer pressure is the *during − before* difference in per-op pool
    misses and I/O time (the delete evicting user-hot pages), which is
    a derived baseline comparison, not a per-op measurement.
    """

    strategy: Optional[str]
    sessions: int
    ops: int
    seed: int
    records_deleted: int
    delete_submit_ms: Optional[float]
    delete_end_ms: Optional[float]
    delete_busy_ms: float
    slice_count: int
    phases: Dict[str, PhaseStats]
    stall_lock_ms: float
    stall_lock_ops: int
    stall_lane_ms: float
    stall_lane_ops: int
    peer_wait_ms: float
    buffer_extra_misses_per_op: float
    buffer_extra_io_ms_per_op: float
    session_p99_min_ms: float
    session_p99_max_ms: float

    def render(self) -> str:
        lines = [
            f"oltp interference report — strategy="
            f"{self.strategy or 'none'} sessions={self.sessions} "
            f"ops={self.ops} seed={self.seed}",
        ]
        if self.delete_submit_ms is None or self.delete_end_ms is None:
            lines.append("delete: (none ran)")
        else:
            window = self.delete_end_ms - self.delete_submit_ms
            lines.append(
                f"delete: submitted t={self.delete_submit_ms:.1f}ms, "
                f"window {window:.1f}ms, engine-busy "
                f"{self.delete_busy_ms:.1f}ms over {self.slice_count} "
                f"slices, {self.records_deleted} records deleted"
            )
        lines.append(
            f"{'phase':<8}{'ops':>6}{'p50 ms':>10}{'p95 ms':>10}"
            f"{'p99 ms':>10}{'max ms':>10}"
        )
        for phase in ("before", "during", "after"):
            stats = self.phases.get(phase)
            if stats is None:
                continue
            lines.append(
                f"{stats.phase:<8}{stats.count:>6}"
                f"{stats.p50_ms:>10.1f}{stats.p95_ms:>10.1f}"
                f"{stats.p99_ms:>10.1f}{stats.max_ms:>10.1f}"
            )
        lines.append(
            f"stalls: lock {self.stall_lock_ms:.1f}ms over "
            f"{self.stall_lock_ops} ops; lane {self.stall_lane_ms:.1f}ms "
            f"over {self.stall_lane_ops} ops; peer queueing "
            f"{self.peer_wait_ms:.1f}ms"
        )
        lines.append(
            f"buffer pressure: {self.buffer_extra_misses_per_op:+.2f} "
            f"misses/op, {self.buffer_extra_io_ms_per_op:+.2f} io ms/op "
            f"vs before-delete baseline"
        )
        lines.append(
            f"per-session p99 spread: {self.session_p99_min_ms:.1f}ms "
            f"… {self.session_p99_max_ms:.1f}ms"
        )
        return "\n".join(lines)


def build_interference_report(result: OltpResult) -> InterferenceReport:
    """Summarise one run into an :class:`InterferenceReport`."""

    def mean(values: List[float]) -> float:
        return math.fsum(values) / len(values) if values else 0.0

    phases: Dict[str, PhaseStats] = {}
    for phase in ("before", "during", "after"):
        ops = result.ops_in_phase(phase)
        if not ops:
            continue
        hist = result.phase_hist(phase)
        phases[phase] = PhaseStats(
            phase=phase,
            count=hist.count,
            p50_ms=hist.percentile(50),
            p95_ms=hist.percentile(95),
            p99_ms=hist.percentile(99),
            max_ms=hist.max_ms,
            mean_io_ms=mean([op.io_ms for op in ops]),
            mean_misses=mean([float(op.buffer_misses) for op in ops]),
        )
    lock_ops = [
        op for op in result.ops if op.stall_kind == STALL_LOCK
    ]
    lane_ops = [
        op for op in result.ops if op.stall_kind == STALL_LANE
    ]
    before = phases.get("before")
    during = phases.get("during")
    extra_misses = (
        during.mean_misses - before.mean_misses
        if before is not None and during is not None
        else 0.0
    )
    extra_io = (
        during.mean_io_ms - before.mean_io_ms
        if before is not None and during is not None
        else 0.0
    )
    session_p99s = [
        hist.percentile(99) for hist in result.per_session.values()
    ]
    return InterferenceReport(
        strategy=result.strategy,
        sessions=result.config.sessions,
        ops=len(result.ops),
        seed=result.config.seed,
        records_deleted=result.records_deleted,
        delete_submit_ms=result.delete_submit_ms,
        delete_end_ms=result.delete_end_ms,
        delete_busy_ms=result.delete_busy_ms,
        slice_count=len(result.slices),
        phases=phases,
        stall_lock_ms=math.fsum(op.delete_stall_ms for op in lock_ops),
        stall_lock_ops=len(lock_ops),
        stall_lane_ms=math.fsum(op.delete_stall_ms for op in lane_ops),
        stall_lane_ops=len(lane_ops),
        peer_wait_ms=math.fsum(op.peer_wait_ms for op in result.ops),
        buffer_extra_misses_per_op=extra_misses,
        buffer_extra_io_ms_per_op=extra_io,
        session_p99_min_ms=min(session_p99s) if session_p99s else 0.0,
        session_p99_max_ms=max(session_p99s) if session_p99s else 0.0,
    )


def run_interference_comparison(
    record_count: int = 2_000,
    sessions: int = 8,
    ops_per_session: int = 40,
    seed: int = 1042,
    fraction: float = 0.15,
    chunk_rows: int = 64,
    index_columns: Tuple[str, ...] = ("A", "B"),
    observe: bool = True,
    strategies: Tuple[str, ...] = ("sidefile", "chunked"),
) -> Dict[str, OltpResult]:
    """Run the same traffic against both delete strategies.

    Each strategy gets its own freshly built workload from the same
    :class:`~repro.workload.generator.WorkloadConfig`, the same delete
    key list, and the same :class:`TrafficConfig` — the timelines
    differ only in what the delete does between user operations.
    """
    from repro.obs.observer import Observer
    from repro.workload.generator import WorkloadConfig, build_workload

    results: Dict[str, OltpResult] = {}
    for strategy in strategies:
        workload = build_workload(
            WorkloadConfig(
                record_count=record_count,
                seed=seed,
                index_columns=index_columns,
            )
        )
        if observe:
            Observer.attach(workload.db)
        config = TrafficConfig(
            sessions=sessions, ops_per_session=ops_per_session, seed=seed
        )
        results[strategy] = run_oltp(
            workload, config, strategy=strategy,
            fraction=fraction, chunk_rows=chunk_rows,
        )
    return results
