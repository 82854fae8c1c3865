"""Unit tests for the write-ahead log itself."""

import ast
import copy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecoveryError
from repro.recovery.wal import WriteAheadLog
from repro.storage.disk import SimulatedDisk


def test_append_returns_increasing_lsns():
    log = WriteAheadLog()
    lsns = [log.append("x", n=i) for i in range(5)]
    assert lsns == [1, 2, 3, 4, 5]
    assert len(log) == 5


def test_records_filter_by_kind():
    log = WriteAheadLog()
    log.append("a", v=1)
    log.append("b", v=2)
    log.append("a", v=3)
    assert [r.payload["v"] for r in log.records("a")] == [1, 3]
    assert [r.kind for r in log.records()] == ["a", "b", "a"]


def test_records_after_and_last():
    log = WriteAheadLog()
    for i in range(4):
        log.append("k", i=i)
    assert [r.payload["i"] for r in log.records_after(2)] == [2, 3]
    assert log.last("k").payload["i"] == 3
    assert log.last("missing") is None


def test_tail():
    log = WriteAheadLog()
    for i in range(10):
        log.append("k", i=i)
    assert [r.payload["i"] for r in log.tail(3)] == [7, 8, 9]


def test_tail_of_zero_or_negative_is_empty():
    # Regression: [-0:] is a full slice, so tail(0) used to return the
    # whole log.
    log = WriteAheadLog()
    for i in range(5):
        log.append("k", i=i)
    assert log.tail(0) == []
    assert log.tail(-3) == []


def test_append_deep_copies_payload():
    # Regression: the payload dict used to be stored by reference, so a
    # caller mutating its dict after append() rewrote the "forced" log.
    log = WriteAheadLog()
    entries = [(1, 10), (2, 20)]
    payload = {"structure": "ix_A", "entries": entries}
    log.append("leaf_deletes", **payload)
    payload["structure"] = "ix_B"
    entries.append((3, 30))
    entries[0] = (9, 99)
    record = log.last("leaf_deletes")
    assert record.payload["structure"] == "ix_A"
    assert record.payload["entries"] == [(1, 10), (2, 20)]


def test_find_open_bulk_delete_states():
    log = WriteAheadLog()
    assert log.find_open_bulk_delete() is None
    begin = log.append("bulk_begin", table="R")
    assert log.find_open_bulk_delete().lsn == begin
    log.append("bulk_end", begin_lsn=begin)
    assert log.find_open_bulk_delete() is None
    # A second statement opens again.
    begin2 = log.append("bulk_begin", table="R")
    assert log.find_open_bulk_delete().lsn == begin2


def test_find_open_rejects_corrupt_log_bodies():
    # Anomalies with records *after* them cannot be mid-append losses;
    # they are corruption and must raise.
    log = WriteAheadLog()
    log.append("bulk_end", begin_lsn=1)
    log.append("checkpoint", begin_lsn=1)
    with pytest.raises(RecoveryError):
        log.find_open_bulk_delete()
    log2 = WriteAheadLog()
    a = log2.append("bulk_begin", table="R")
    log2.append("bulk_begin", table="S")
    log2.append("bulk_end", begin_lsn=a)  # mismatched nesting
    log2.append("checkpoint", begin_lsn=a)
    with pytest.raises(RecoveryError):
        log2.find_open_bulk_delete()


def test_find_open_tolerates_anomalous_final_record():
    # Regression: a crash can strike after the final record's force
    # completed but before the writer's in-memory state caught up.
    # Recovery must never raise on such a well-formed truncated log.
    log = WriteAheadLog()
    log.append("bulk_end", begin_lsn=1)
    assert log.find_open_bulk_delete() is None
    log2 = WriteAheadLog()
    a = log2.append("bulk_begin", table="R")
    b = log2.append("bulk_begin", table="S")
    log2.append("bulk_end", begin_lsn=a)  # orphaned tail record
    # The open statement (S) is still the unit of recovery.
    assert log2.find_open_bulk_delete().lsn == b


def test_truncate_torn_tail():
    from repro.recovery.wal import _TORN_KEY, LogRecord

    log = WriteAheadLog()
    log.append("bulk_begin", table="R")
    log._records.append(LogRecord(2, "checkpoint", {_TORN_KEY: True}))
    assert log.tail(1)[0].torn
    # find_open skips an un-truncated torn tail rather than raising.
    assert log.find_open_bulk_delete().kind == "bulk_begin"
    dropped = log.truncate_torn_tail()
    assert dropped is not None and dropped.kind == "checkpoint"
    assert len(log) == 1
    # Idempotent: a second truncation is a no-op.
    assert log.truncate_torn_tail() is None
    # A torn record in the log *body* is corruption.
    log3 = WriteAheadLog()
    log3._records.append(LogRecord(1, "x", {_TORN_KEY: True}))
    log3.append("bulk_begin", table="R")
    with pytest.raises(RecoveryError):
        log3.find_open_bulk_delete()


def test_append_charges_simulated_time():
    disk = SimulatedDisk(page_size=512)
    log = WriteAheadLog(disk)
    t0 = disk.clock.now_ms
    log.append("k")
    assert disk.clock.now_ms > t0


def test_append_without_disk_is_free():
    log = WriteAheadLog()
    log.append("k")  # no clock to advance; just must not crash


# ----------------------------------------------------------------------
# ownership: a forced record is the log's own plain data
# ----------------------------------------------------------------------
ATOMS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.binary(max_size=6) | st.floats(allow_nan=False)
)
PAYLOADS = st.dictionaries(
    st.sampled_from(["entries", "image", "nodes", "metadata", "v"]),
    st.recursive(
        ATOMS,
        lambda inner: (
            st.lists(inner, max_size=4)
            | st.tuples(inner, inner)
            | st.dictionaries(st.integers(0, 9) | st.text(max_size=2),
                              inner, max_size=3)
        ),
        max_leaves=24,
    ),
    max_size=4,
)


def mutate_every_container(value) -> None:
    """Change every list and dict reachable from ``value`` in place."""
    if isinstance(value, (list, tuple)):
        for item in value:
            mutate_every_container(item)
    elif isinstance(value, dict):
        for item in value.values():
            mutate_every_container(item)
    if isinstance(value, list):
        value.append("mutated")
        value[0] = "overwritten"
    elif isinstance(value, dict):
        value["mutated"] = True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=PAYLOADS)
def test_append_stores_a_copy_the_caller_cannot_reach(payload):
    expected = copy.deepcopy(payload)
    log = WriteAheadLog()
    log.append("k", **payload)
    record = log.last("k")
    assert record.payload == expected
    mutate_every_container(payload)
    assert record.payload == expected


def test_append_shares_page_images_and_atom_tuples():
    log = WriteAheadLog()
    image, entry = bytes(range(64)), (7, 1 << 16)
    log.append("page_image", page_id=3, image=image, entries=[entry])
    record = log.last("page_image")
    assert record.payload["image"] is image
    assert record.payload["entries"][0] is entry


def test_append_refuses_what_is_not_plain_data():
    log = WriteAheadLog()
    with pytest.raises(TypeError, match="set"):
        log.append("k", keys={1, 2})
    assert len(log) == 0


def test_redact_replaces_the_record_and_leaves_the_old_one():
    log = WriteAheadLog()
    log.append("bulk_begin", table="R")
    lsn = log.append("heap_deletes", structure="__table__",
                     entries=[(1, 10), (2, 20)])
    old = log.last("heap_deletes")
    keys = [1, 2]
    new = log.redact(lsn, redacted_entries=2, entries=keys)
    keys.append(3)
    assert (new.lsn, new.kind) == (lsn, "heap_deletes")
    assert new.payload == {
        "structure": "__table__", "redacted_entries": 2, "entries": [1, 2],
    }
    assert log.last("heap_deletes") is new
    assert old.payload["entries"] == [(1, 10), (2, 20)]
    for missing in (0, 3):
        with pytest.raises(KeyError):
            log.redact(missing, entries=[])


def test_a_forked_log_shares_records_but_not_the_list():
    log = WriteAheadLog(SimulatedDisk(page_size=512))
    lsn = log.append("page_image", page_id=1, image=bytes(512))
    fork = copy.deepcopy(log)
    assert fork.last("page_image") is log.last("page_image")
    fork.redact(lsn, image=b"\x01" * 512)
    fork.append("note")
    assert log.last("page_image").payload["image"] == bytes(512)
    assert len(log) == 1 and len(fork) == 2
    assert fork.disk is not log.disk


def test_nothing_assigns_into_a_forced_record():
    # Forks share LogRecord objects, so an in-place edit of a payload
    # would reach every fork of the log: only WriteAheadLog.redact may
    # change a record, and it replaces it.
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    mutators = {"update", "pop", "popitem", "setdefault", "clear"}
    offenders = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in mutators
            ):
                targets = [node.func]
            for target in targets:
                base = target.value if isinstance(
                    target, (ast.Subscript, ast.Attribute)
                ) else None
                if isinstance(base, ast.Attribute) and base.attr == "payload":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
