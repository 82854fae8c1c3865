"""Reference traffic driver: the scan-based timeline loop that
``repro.workload.traffic.TrafficDriver.run`` replaced, kept verbatim as
the oracle.

``run`` below rescans every session per operation (three passes: the
sessions with operations left, those that have arrived, and the
earliest of them) and ``_service`` reads an operation's I/O time
through a ``DiskStats`` snapshot and ``delta_since``.  Everything else
(op generation, slices, stall attribution, the strategies) is the
engine's own, inherited unchanged.  ``tests/test_traffic.py`` runs
both drivers on forks of one workload and requires every simulated
value to match.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Tuple

from repro.workload.traffic import (
    LatencyHistogram,
    OltpResult,
    OpRecord,
    TrafficDriver,
    _Session,
)


class ReferenceTrafficDriver(TrafficDriver):
    """``TrafficDriver`` with the parent's scan loop and snapshot
    accounting."""

    def run(self) -> OltpResult:
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

        while True:
            pending = [s for s in sessions if s.remaining > 0]
            delete_active = slices is not None and not slices_done
            if not pending and not delete_active:
                if self.strategy is not None and slices is None:
                    # Traffic ended before the trigger count: the
                    # delete still runs (uncontended drain).
                    slices = self._start_delete()
                    delete_ready = clock.now_ms
                    continue
                break
            arrived = [
                s for s in pending if s.next_arrival_ms <= clock.now_ms
            ]
            sess = (
                min(arrived, key=lambda s: (s.next_arrival_ms, s.sid))
                if arrived
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
                self._service(sess, obs)
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
            horizon = min(s.next_arrival_ms for s in pending)
            clock.advance_ms(horizon - clock.now_ms)

        if self.strategy is not None:
            self.result.records_deleted = (
                self.strategy.records_deleted  # type: ignore[attr-defined]
            )
            # Classify only now: ops serviced after the delete drained
            # still need their phase.
            self._classify_phases()
        return self.result

    def _service(self, sess: _Session, obs: Optional[object]) -> None:
        db = self.db
        clock = db.clock
        arrival = sess.next_arrival_ms
        kind, key, values = self._draw_op(sess)
        stall_from, stall_to, stall_kind = self._stall_for(arrival)
        start = clock.now_ms
        d0 = db.disk.stats.snapshot()
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
            io_ms=db.disk.stats.delta_since(d0).io_time_ms,
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
