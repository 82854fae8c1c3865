"""Write-ahead log for bulk deletes.

The paper's recovery story (§3.2): checkpoints flush dirty pages and
note the last processed key/RID; restart *finishes* an interrupted bulk
deletion forward instead of rolling it back, and side-files captured by
concurrent updaters are applied after the bulk delete completes.

This log keeps logical records:

* ``bulk_begin`` / ``bulk_end`` bracket one bulk delete and record its
  stage order,
* ``materialized`` registers a spill file (page ids + tuple count) so
  restart can re-open intermediate results — "the results of the join
  variants should be materialized to stable storage",
* ``leaf_deletes`` / ``heap_deletes`` are logical redo records written
  *before* the corresponding page is modified (the WAL rule): after a
  crash, every change that may have reached disk is re-derivable from
  the log,
* ``structure_done`` + ``checkpoint`` mark stage boundaries (all pages
  flushed, catalog metadata snapshot attached).

Appending is modelled as forced (synchronous) logging: once ``append``
returns, the record survives any crash.  The log file itself lives
outside the simulated disk; its (sequential, tiny) I/O is charged as a
fraction of a page write per record.

A forced record is immutable.  ``append`` takes its own copy of the
payload's dicts and lists (type-directed, no generic deep copy) and
shares the immutable leaves: numbers, strings, ``bytes`` page images
and tuples of them.  The one way a forced record changes is
:meth:`WriteAheadLog.redact` (retention's erase pass), which puts a new
record in its place.  A fork of the log therefore shares every record
object and copies only the list of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.errors import CorruptLogError
from repro.storage.disk import SimulatedDisk

#: Payload key marking a torn (partially forced) final record.  Kept in
#: sync with :data:`repro.faults.injector.TORN_RECORD_KEY` (the WAL must
#: not import the fault package).
_TORN_KEY = "__torn__"


#: Payload leaves stored as they are: immutable values.
_ATOMS = frozenset({int, float, str, bytes, bool, type(None)})
_TUPLE = frozenset({tuple})


def _atoms_only(items: Iterable[Any]) -> bool:
    """Whether ``items`` holds only atoms, or only tuples of atoms (a
    redo record's entries): checked by C-level passes over the types."""
    kinds = set(map(type, items))
    if kinds == _TUPLE:
        kinds = set(map(type, chain.from_iterable(items)))
    return kinds <= _ATOMS


def _owned(value: Any) -> Any:
    """``value`` with every dict and list copied, so nothing the caller
    still holds can reach the copy; atoms and tuples of atoms are
    shared.  Payloads are plain data: any other type is refused."""
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict:
        if _atoms_only(value.values()):
            return dict(value)
        return {key: _owned(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        if _atoms_only(value):
            return value if kind is tuple else list(value)
        return kind(map(_owned, value))
    raise TypeError(
        f"a WAL payload holds plain data, not {kind.__name__!r}"
    )


@dataclass(frozen=True)
class LogRecord:
    """One durable log entry.  Immutable once forced: nothing assigns
    into ``payload`` (see :meth:`WriteAheadLog.redact`)."""

    lsn: int
    kind: str
    payload: Dict[str, Any]

    @property
    def torn(self) -> bool:
        """True for a partially forced record (restart truncates it)."""
        return bool(self.payload.get(_TORN_KEY))

    def __deepcopy__(self, memo: dict) -> "LogRecord":
        # Never changed after append: a forked log shares it.
        return self


class WriteAheadLog:
    """Append-only, force-at-append log."""

    #: Simulated cost per appended record (sequential log device).
    APPEND_COST_MS = 0.05

    def __init__(self, disk: Optional[SimulatedDisk] = None) -> None:
        self.disk = disk
        self._records: List[LogRecord] = []
        #: Fault-injection hook (:class:`repro.faults.FaultInjector`).
        #: ``None`` keeps appends on the fast path.
        self.fault_injector: Optional[Any] = None

    def append(self, kind: str, **payload: Any) -> int:
        # The log owns its copy of the payload: once forced, a record
        # is immutable even if the caller keeps mutating the lists it
        # logged from (redo idempotence depends on replaying what was
        # *forced*).
        lsn = len(self._records) + 1
        record = LogRecord(lsn, kind, _owned(payload))
        if self.disk is not None:
            self.disk.clock.advance_ms(self.APPEND_COST_MS)
        injector = self.fault_injector
        if injector is None:
            self._records.append(record)
        else:
            injector.on_wal_append(record, self._records.append)
        return lsn

    def redact(self, lsn: int, **changes: Any) -> LogRecord:
        """Replace record ``lsn`` by a copy whose payload has ``changes``
        applied, and return it.

        The only way a forced record changes (retention's erase pass
        strips victim keys and stale page images).  The old record
        object is left as it was, so a fork that shares it never sees
        the change.  Uncharged: it models rewriting the log offline.
        """
        index = lsn - 1
        if not 0 <= index < len(self._records):
            raise KeyError(f"no WAL record with lsn {lsn}")
        old = self._records[index]
        record = LogRecord(lsn, old.kind, {**old.payload, **_owned(changes)})
        self._records[index] = record
        return record

    def records(self, kind: Optional[str] = None) -> Iterator[LogRecord]:
        for record in self._records:
            if kind is None or record.kind == kind:
                yield record

    def records_after(self, lsn: int) -> Iterator[LogRecord]:
        for record in self._records:
            if record.lsn > lsn:
                yield record

    def last(self, kind: str) -> Optional[LogRecord]:
        for record in reversed(self._records):
            if record.kind == kind:
                return record
        return None

    def __len__(self) -> int:
        return len(self._records)

    def tail(self, n: int = 10) -> List[LogRecord]:
        if n <= 0:
            return []
        return self._records[-n:]

    def truncate_torn_tail(self) -> Optional[LogRecord]:
        """Drop a torn final record, returning it (or ``None``).

        Models restart's checksum scan: a record whose force was
        interrupted mid-write fails its checksum and the log is
        truncated at the last intact record.  Only the *final* record
        can legitimately be torn — an earlier torn record means the
        device reordered forced writes, which the simulation never does.
        """
        if self._records and self._records[-1].torn:
            return self._records.pop()
        return None

    def find_open_bulk_delete(self) -> Optional[LogRecord]:
        """The last ``bulk_begin`` without a matching ``bulk_end``.

        Anomalies in the log *body* are real corruption and raise.  An
        anomalous **final** record is tolerated: a crash can strike
        after the force completed but before the writer's in-memory
        state caught up, so the tail may carry a record the writer never
        acted on (e.g. a ``bulk_end`` that does not match the open
        statement).  A well-formed truncated log must never fail here.
        """
        open_record: Optional[LogRecord] = None
        last_index = len(self._records) - 1
        for index, record in enumerate(self._records):
            if record.torn:
                if index == last_index:
                    # An un-truncated torn tail; ignore it (callers that
                    # want it gone run truncate_torn_tail first).
                    continue
                raise CorruptLogError("torn record inside the log body")
            if record.kind == "bulk_begin":
                open_record = record
            elif record.kind == "bulk_end":
                if open_record is None:
                    if index == last_index:
                        continue
                    raise CorruptLogError("bulk_end without bulk_begin")
                if record.payload.get("begin_lsn") != open_record.lsn:
                    if index == last_index:
                        # Orphaned tail record; the open statement is
                        # still the unit of recovery.
                        continue
                    raise CorruptLogError("interleaved bulk deletes in log")
                open_record = None
        return open_record
