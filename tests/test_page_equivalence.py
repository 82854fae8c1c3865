"""The one-decode-per-touch ``SlottedPage`` against the class it replaced.

``tests/reference_page.py`` keeps the per-slot ``struct`` class
verbatim.  Hypothesis drives both with the same verb sequences and
demands, after every single step, the same return value, the same
exception type *and message*, and a byte-identical buffer — durable
heap, run, manifest and log pages are therefore exactly the parent's.
The comparison covers well-formed pages only: a header whose directory
cannot fit the page is the one deliberate divergence (the engine's class
raises ``StorageError`` where the reference reads from the wrong end of
the frame) and is pinned in ``tests/test_slotted_page.py``.

Also here, because they are the same claim one layer up: the batch
verbs equal the per-slot loop (``fill`` is ``can_fit`` + ``insert``
per record), the other byte order decodes the same
directory, ``HeapFile.delete_many_sorted`` still hands the page's
deletes to the WAL hook before the frame changes, and ``run_get``
charges the linear-scan position whatever the host does to find a key.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.lsm.sstable import build_run, run_get, run_iter
from repro.storage import page_formats
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.page_formats import SLOT_SIZE, SlottedPage
from repro.storage.rid import RID
from tests.reference_page import ReferenceSlottedPage

PAGE_SIZES = (64, 512, 4096)

#: Slots from just below zero to just past what a 64-byte page can hold.
slots = st.integers(min_value=-2, max_value=12)


def payloads(page_size: int) -> st.SearchStrategy[bytes]:
    """Mostly small records, now and then empty or larger than the page."""
    return st.one_of(
        st.binary(max_size=24),
        st.builds(
            lambda fill, size: bytes([fill]) * size,
            st.integers(1, 255),
            st.integers(0, page_size + 8),
        ),
    )


def verbs(page_size: int) -> st.SearchStrategy[Tuple[Any, ...]]:
    mutate = st.one_of(
        st.tuples(st.just("insert"), payloads(page_size)),
        st.tuples(st.just("insert"), st.binary(min_size=1, max_size=9)),
        st.tuples(st.just("delete"), slots),
        st.tuples(st.just("delete_many"), st.lists(slots, max_size=5)),
        # (slot, fill byte, length delta): 0 = same length, else wrong.
        st.tuples(
            st.just("replace"), slots, st.integers(0, 255),
            st.sampled_from((0, 0, 0, -1, 1, 7)),
        ),
        st.just(("compact",)),
        # (records, force): a run of inserts while each fits.
        st.tuples(
            st.just("fill"),
            st.lists(payloads(page_size), min_size=1, max_size=6),
            st.booleans(),
        ),
    )
    observe = st.one_of(
        st.tuples(st.just("read"), slots),
        st.tuples(st.just("is_live"), slots),
        st.tuples(st.just("can_fit"), st.integers(0, page_size)),
        st.tuples(st.just("read_many"), st.lists(slots, max_size=5)),
        st.sampled_from([
            ("records",), ("free_space",), ("potential_free_space",),
            ("is_empty",), ("slot_count",), ("live_records",),
        ]),
    )
    return st.one_of(mutate, mutate, observe)


def _outcome(call: Callable[[], Any]) -> Tuple[str, Any]:
    try:
        value = call()
    except Exception as exc:  # the *type and message* are the contract
        return type(exc).__name__, str(exc)
    return "ok", value


def _apply(page: Any, verb: Tuple[Any, ...], batch: bool) -> Tuple[str, Any]:
    """Run one verb; ``batch`` says whether the page has the batch verbs
    (the reference spells them as the per-slot loop they replaced)."""
    name, args = verb[0], verb[1:]
    if name in ("slot_count", "live_records"):
        return _outcome(lambda: getattr(page, name))
    if name == "records":
        return _outcome(lambda: list(page.records()))
    if name == "replace":
        slot, fill, delta = args
        length = len(page.read(slot)) if page.is_live(slot) else 1
        record = bytes([fill]) * max(0, length + delta)
        return _outcome(lambda: page.replace(slot, record))
    if name == "read_many" and not batch:
        return _outcome(lambda: [page.read(slot) for slot in args[0]])
    if name == "fill":
        records, force = args
        if batch:
            return _outcome(lambda: page.fill(records[0], records[1:], force))
        return _outcome(lambda: _fill_loop(page, records, force))
    if name == "delete_many" and not batch:
        def loop() -> None:
            for slot in args[0]:
                page.delete(slot)
        return _outcome(loop)
    return _outcome(lambda: getattr(page, name)(*args))


def _fill_loop(
    page: Any, records: List[bytes], force: bool
) -> Tuple[Any, Any]:
    """``fill`` spelled as the per-record loop it replaced: ``can_fit``
    then ``insert`` (a forced first record goes straight to
    ``insert``); returns the last slot and the first record left."""
    last = None
    for i, record in enumerate(records):
        if not (force and i == 0) and not page.can_fit(len(record)):
            return last, record
        last = page.insert(record)
    return last, None


@pytest.mark.parametrize("page_size", PAGE_SIZES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_same_results_errors_and_bytes_after_every_verb(page_size, data):
    sequence = data.draw(st.lists(verbs(page_size), max_size=60))
    new = SlottedPage.format_empty(bytearray(page_size))
    ref = ReferenceSlottedPage.format_empty(bytearray(page_size))
    assert new.data == ref.data
    for step, verb in enumerate(sequence):
        got = _apply(new, verb, batch=True)
        want = _apply(ref, verb, batch=False)
        assert got == want, (step, verb)
        assert new.data == ref.data, (step, verb)
        assert len(new.data) == page_size


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(st.binary(min_size=1, max_size=30), min_size=1, max_size=12),
    doomed=st.lists(st.integers(0, 11), max_size=8),
    wanted=st.lists(st.integers(-1, 13), max_size=8),
)
def test_batch_verbs_equal_the_per_slot_loop(records, doomed, wanted):
    """On one class: ``read_many`` / ``delete_many`` are ``read`` /
    ``delete`` in a loop — results, errors, and bytes, also when a dead
    or out-of-range slot stops the batch part-way."""
    batch = SlottedPage.format_empty(bytearray(512))
    loop = SlottedPage.format_empty(bytearray(512))
    for record in records:
        batch.insert(record)
        loop.insert(record)

    def delete_loop() -> None:
        for slot in doomed:
            loop.delete(slot)

    assert _outcome(lambda: batch.delete_many(doomed)) == _outcome(delete_loop)
    assert batch.data == loop.data
    assert _outcome(lambda: batch.read_many(wanted)) == _outcome(
        lambda: [loop.read(slot) for slot in wanted]
    )
    assert batch.data == loop.data


def test_insert_reuses_the_lowest_dead_slot():
    page = SlottedPage.format_empty(bytearray(512))
    for i in range(8):
        page.insert(bytes([i + 1]) * 4)
    page.delete_many([6, 2, 4])
    assert [page.insert(b"new!") for _ in range(4)] == [2, 4, 6, 8]


def test_a_header_that_miscounts_live_records_still_appends():
    """``live < slot_count`` sends ``insert`` looking for a dead slot;
    when the directory has none it appends, as the full scan did."""
    pages = []
    for cls in (SlottedPage, ReferenceSlottedPage):
        page = cls.format_empty(bytearray(128))
        for i in range(3):
            page.insert(bytes([i + 1]) * 3)
        page.data[4:6] = (1).to_bytes(2, "little")  # claims one live of three
        assert page.insert(b"new") == 3
        pages.append(page)
    assert pages[0].data == pages[1].data


def test_records_is_a_snapshot_of_the_page_at_call_time():
    page = SlottedPage.format_empty(bytearray(512))
    for i in range(4):
        page.insert(bytes([i + 1]) * 5)
    rows = page.records()
    page.delete(1)
    page.replace(2, b"xxxxx")
    page.compact()
    assert rows == [(i, bytes([i + 1]) * 5) for i in range(4)]
    assert page.records() == [(0, b"\x01" * 5), (2, b"xxxxx"), (3, b"\x04" * 5)]


# ----------------------------------------------------------------------
# the other byte order
# ----------------------------------------------------------------------
def _swap_directory_words(page: SlottedPage) -> bytearray:
    """A copy of the page with every 16-bit directory word byte-swapped:
    what the ``array`` codec sees natively on the other kind of host."""
    out = bytearray(page.data)
    for pos in range(page.page_size - SLOT_SIZE * page.slot_count, page.page_size, 2):
        out[pos], out[pos + 1] = out[pos + 1], out[pos]
    return out


def test_other_byte_order_swaps_every_directory_word(monkeypatch):
    page = SlottedPage.format_empty(bytearray(1024))
    for i in range(9):
        page.insert(bytes([i + 1]) * (40 + i))  # offsets beyond one byte
    page.delete_many([0, 4, 8])
    want_rows = page.records()
    want_free = page.potential_free_space()
    want_directory = page.directory()
    foreign = SlottedPage(_swap_directory_words(page))
    page.compact()

    monkeypatch.setattr(
        page_formats, "_BIG_ENDIAN", not page_formats._BIG_ENDIAN
    )
    assert foreign.records() == want_rows
    assert foreign.potential_free_space() == want_free
    assert foreign.directory() == want_directory
    assert SlottedPage(bytearray(foreign.data)).insert(b"z") == 0  # dead-slot search
    foreign.compact()
    # Header and payloads are byte-order free; the directory comes back
    # in the order it was found.
    assert foreign.data == _swap_directory_words(page)


# ----------------------------------------------------------------------
# the consumers: heap sweep (WAL order) and SSTable reads (CPU charge)
# ----------------------------------------------------------------------
def test_delete_many_sorted_logs_before_the_frame_changes():
    pool = BufferPool(SimulatedDisk(page_size=256), capacity_pages=8)
    heap = HeapFile(pool)
    rids = [heap.append(bytes([i + 1]) * 40) for i in range(20)]
    doomed = [rid for i, rid in enumerate(rids) if i % 3 != 1]
    assert len({rid.page_id for rid in doomed}) > 2

    def image(page_id: int) -> bytes:
        with pool.pin(page_id) as pinned:
            return bytes(pinned.data)

    before = {page_id: image(page_id) for page_id in heap.page_ids}
    logged: List[List[Tuple[RID, bytes]]] = []

    def on_page_deletes(page_deletes: List[Tuple[RID, bytes]]) -> None:
        (page_id,) = {rid.page_id for rid, _ in page_deletes}
        assert image(page_id) == before[page_id]
        assert [payload for _, payload in page_deletes] == [
            bytes([rids.index(rid) + 1]) * 40 for rid, _ in page_deletes
        ]
        logged.append(page_deletes)

    deleted = heap.delete_many_sorted(doomed, on_page_deletes=on_page_deletes)
    assert [rid for rid, _ in deleted] == doomed
    assert [pair for page in logged for pair in page] == deleted
    assert all(image(p) != before[p] for p in {rid.page_id for rid in doomed})
    assert heap.record_count == len(rids) - len(doomed)
    assert [rid for rid, _ in heap.scan()] == [r for r in rids if r not in doomed]


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(0, 400), min_size=1, max_size=120, unique=True),
    probes=st.lists(st.integers(-5, 405), min_size=1, max_size=30),
)
def test_run_get_charges_the_linear_scan_position(keys, probes):
    """The host bisects; the simulated CPU is still charged as if the
    page had been scanned from its first entry to the stopping point."""
    disk = SimulatedDisk(page_size=256)
    pool = BufferPool(disk, capacity_pages=8)
    items = [
        (key, seq, None if key % 5 == 0 else bytes([key % 251 + 1]) * (key % 9))
        for seq, key in enumerate(sorted(keys), start=1)
    ]
    meta = build_run(pool, disk.create_file(), 1, 0, items)
    assert list(run_iter(pool, meta)) == items
    by_key = {key: (seq, payload) for key, seq, payload in items}

    pages = [
        [key for key, _, _ in items if lo <= key and (hi is None or key < hi)]
        for lo, hi in zip(meta.fences, list(meta.fences[1:]) + [None])
    ]
    charged: List[int] = []
    disk.charge_cpu_records = charged.append  # type: ignore[method-assign]
    for probe in probes:
        charged.clear()
        found, pages_read = run_get(pool, meta, probe)
        assert found == by_key.get(probe)
        if probe < meta.fences[0]:
            assert (pages_read, charged) == (0, [])
            continue
        page = next(p for p in reversed(pages) if p[0] <= probe)
        scanned = next(
            (i + 1 for i, key in enumerate(page) if key >= probe), len(page)
        )
        assert (pages_read, charged) == (1, [scanned])


def test_a_deleted_slot_on_a_run_page_is_reported():
    disk = SimulatedDisk(page_size=256)
    pool = BufferPool(disk, capacity_pages=8)
    meta = build_run(
        pool, disk.create_file(), 1, 0, [(k, k + 1, b"v") for k in range(5)]
    )
    with pool.pin(meta.page_ids[0]) as pinned:
        SlottedPage(pinned.data).delete(2)
    with pytest.raises(StorageError, match="immutable"):
        list(run_iter(pool, meta))
    with pytest.raises(StorageError, match="immutable"):
        run_get(pool, meta, 3)
