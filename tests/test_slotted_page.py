"""Unit tests for the slotted page layout."""

import pytest

from repro.errors import PageFullError, StorageError
from repro.storage.page_formats import HEADER_SIZE, SLOT_SIZE, SlottedPage


def make_page(size=512):
    return SlottedPage.format_empty(bytearray(size))


def test_insert_and_read_roundtrip():
    page = make_page()
    slot = page.insert(b"hello")
    assert page.read(slot) == b"hello"
    assert page.live_records == 1


def test_multiple_records_get_distinct_slots():
    page = make_page()
    slots = [page.insert(f"r{i}".encode()) for i in range(5)]
    assert slots == [0, 1, 2, 3, 4]
    for i, slot in enumerate(slots):
        assert page.read(slot) == f"r{i}".encode()


def test_delete_tombstones_slot():
    page = make_page()
    s0 = page.insert(b"aaa")
    s1 = page.insert(b"bbb")
    assert page.delete(s0) == b"aaa"
    assert not page.is_live(s0)
    assert page.is_live(s1)
    assert page.read(s1) == b"bbb"
    with pytest.raises(StorageError):
        page.read(s0)


def test_delete_twice_raises():
    page = make_page()
    slot = page.insert(b"x")
    page.delete(slot)
    with pytest.raises(StorageError):
        page.delete(slot)


def test_slot_reuse_preserves_other_rids():
    page = make_page()
    s0 = page.insert(b"one")
    s1 = page.insert(b"two")
    page.delete(s0)
    s2 = page.insert(b"three")
    assert s2 == s0  # dead slot reused
    assert page.read(s1) == b"two"


def test_page_full_raises():
    page = make_page(size=256)
    payload = b"z" * 100
    page.insert(payload)
    page.insert(payload)
    with pytest.raises(PageFullError):
        page.insert(payload)


def test_free_space_decreases_monotonically_on_insert():
    page = make_page()
    before = page.free_space()
    page.insert(b"abcdef")
    after = page.free_space()
    assert after == before - 6 - SLOT_SIZE


def test_records_iterates_live_only():
    page = make_page()
    s0 = page.insert(b"a")
    page.insert(b"b")
    page.delete(s0)
    assert [(slot, data) for slot, data in page.records()] == [(1, b"b")]


def test_compact_reclaims_payload_space():
    page = make_page(size=256)
    big = b"q" * 80
    s0 = page.insert(big)
    s1 = page.insert(big)
    page.delete(s0)
    with pytest.raises(PageFullError):
        page.insert(b"w" * 100)
    page.compact()
    assert page.read(s1) == big  # survivor intact, same slot
    page.insert(b"w" * 100)  # now it fits


def test_compact_preserves_slot_numbers():
    page = make_page()
    slots = [page.insert(f"rec{i}".encode()) for i in range(4)]
    page.delete(slots[1])
    page.compact()
    assert page.read(slots[0]) == b"rec0"
    assert page.read(slots[2]) == b"rec2"
    assert page.read(slots[3]) == b"rec3"
    assert not page.is_live(slots[1])


def test_is_empty():
    page = make_page()
    assert page.is_empty()
    slot = page.insert(b"x")
    assert not page.is_empty()
    page.delete(slot)
    assert page.is_empty()


def test_empty_record_rejected():
    page = make_page()
    with pytest.raises(StorageError):
        page.insert(b"")


def test_read_out_of_range_slot():
    page = make_page()
    with pytest.raises(StorageError):
        page.read(0)
    assert not page.is_live(0)


def test_can_fit_accounts_for_slot_entry():
    page = make_page(size=HEADER_SIZE + SLOT_SIZE + 10)
    assert page.can_fit(10)
    assert not page.can_fit(11)


# ----------------------------------------------------------------------
# headers that cannot describe this page
# ----------------------------------------------------------------------
def _every_verb(page):
    return [
        lambda: page.slot_count,
        lambda: page.live_records,
        page.free_space,
        lambda: page.can_fit(1),
        page.potential_free_space,
        lambda: page.insert(b"x"),
        lambda: page.read(0),
        lambda: page.read_many([0]),
        lambda: page.is_live(0),
        lambda: page.replace(0, b"x"),
        lambda: page.delete(0),
        lambda: page.delete_many([0]),
        page.records,
        page.directory,
        page.compact,
        page.is_empty,
    ]


@pytest.mark.parametrize(
    "header",
    [
        b"\xff" * HEADER_SIZE,  # garbage: 65 535 slots
        # One slot more than a 512-byte page can hold beside its header.
        ((512 - HEADER_SIZE) // SLOT_SIZE + 1).to_bytes(2, "little") + bytes(6),
    ],
)
def test_directory_larger_than_the_page_is_a_storage_error(header):
    data = bytearray(512)
    data[:HEADER_SIZE] = header
    before = bytes(data)
    page = SlottedPage(data)
    for verb in _every_verb(page):
        with pytest.raises(StorageError, match="does not fit a 512-byte page"):
            verb()
    assert bytes(data) == before  # nothing was read from, or written to, the wrong end


def test_largest_directory_that_fits_is_accepted():
    data = bytearray(512)
    capacity = (512 - HEADER_SIZE) // SLOT_SIZE
    data[:2] = capacity.to_bytes(2, "little")
    page = SlottedPage(data)
    assert page.slot_count == capacity
    assert page.records() == []  # every slot reads as dead


def test_never_formatted_page_reads_as_empty():
    """An all-zero page is the clean end of the LSM log chain: zero
    slots, nothing live — not an error."""
    page = SlottedPage(bytearray(512))
    assert page.slot_count == 0 and page.live_records == 0
    assert page.is_empty()
    assert page.records() == []
    assert page.read_many([]) == []
    assert not page.is_live(0)
    assert page.potential_free_space() == 512 - HEADER_SIZE - SLOT_SIZE
