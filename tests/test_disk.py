"""Unit tests for the simulated disk and its service-time model."""
# This file unit-tests the raw page API itself and pins exact
# deterministic service times, so both rules are file-allowed:
# lint: allow-file(raw-page-io, float-cost-eq)

from dataclasses import asdict, fields

import pytest

from repro.errors import StorageError
from repro.storage.disk import (
    NEAR_SEQUENTIAL_WINDOW,
    DiskParameters,
    DiskStats,
    SimClock,
    SimulatedDisk,
)


def test_allocate_and_roundtrip(disk):
    f = disk.create_file()
    pid = disk.allocate_page(f)
    assert disk.page_exists(pid)
    data = b"x" * disk.page_size
    disk.write_page(pid, data)
    assert disk.read_page(pid) == data


def test_new_page_is_zeroed(disk):
    pid = disk.allocate_page(disk.create_file())
    assert disk.read_page(pid) == bytes(disk.page_size)


def test_wrong_size_write_rejected(disk):
    pid = disk.allocate_page(disk.create_file())
    with pytest.raises(StorageError):
        disk.write_page(pid, b"short")


def test_read_missing_page_raises(disk):
    with pytest.raises(StorageError):
        disk.read_page(424242)


def test_contiguous_allocation_within_file(disk):
    f = disk.create_file()
    pids = disk.allocate_pages(f, 5)
    assert pids == list(range(pids[0], pids[0] + 5))


def test_sequential_read_classified(disk):
    f = disk.create_file()
    pids = disk.allocate_pages(f, 4)
    for pid in pids:
        disk.read_page(pid)
    # First access of the file is random, the rest sequential.
    assert disk.stats.random_reads == 1
    assert disk.stats.sequential_reads == 3


def test_backward_access_is_random(disk):
    f = disk.create_file()
    pids = disk.allocate_pages(f, 3)
    disk.read_page(pids[2])
    disk.read_page(pids[0])
    assert disk.stats.random_reads == 2


def test_near_sequential_window(disk):
    f = disk.create_file()
    pids = disk.allocate_pages(f, NEAR_SEQUENTIAL_WINDOW + 2)
    disk.read_page(pids[0])
    disk.read_page(pids[NEAR_SEQUENTIAL_WINDOW])  # within the window
    assert disk.stats.near_sequential_reads == 1
    disk.read_page(pids[0])  # backward jump: random
    disk.read_page(pids[NEAR_SEQUENTIAL_WINDOW + 1])  # beyond the window
    assert disk.stats.random_reads == 3  # first touch + backward + far jump


def test_interleaved_files_stay_sequential(disk):
    """Two sequential streams on different files must not disturb
    each other — this property carries the whole benchmark design."""
    f1, f2 = disk.create_file(), disk.create_file()
    p1 = disk.allocate_pages(f1, 4)
    p2 = disk.allocate_pages(f2, 4)
    for a, b in zip(p1, p2):
        disk.read_page(a)
        disk.read_page(b)
    assert disk.stats.random_reads == 2  # one first-touch per file
    assert disk.stats.sequential_reads == 6


def test_reads_and_writes_tracked_separately(disk):
    """Deferred write-backs must not break a scan's sequentiality."""
    f = disk.create_file()
    pids = disk.allocate_pages(f, 6)
    data = bytes(disk.page_size)
    disk.read_page(pids[0])
    disk.read_page(pids[1])
    disk.write_page(pids[0], data)  # write stream starts here
    disk.read_page(pids[2])         # read stream continues sequentially
    disk.write_page(pids[1], data)
    assert disk.stats.sequential_reads == 2
    assert disk.stats.sequential_writes == 1


def test_clock_advances_with_costs(disk):
    params = disk.parameters
    f = disk.create_file()
    pids = disk.allocate_pages(f, 2)
    disk.read_page(pids[0])
    assert disk.clock.now_ms == pytest.approx(
        params.random_ms(disk.page_size)
    )
    disk.read_page(pids[1])
    assert disk.clock.now_ms == pytest.approx(
        params.random_ms(disk.page_size)
        + params.sequential_ms(disk.page_size)
    )


def test_random_costs_dominate_sequential():
    params = DiskParameters()
    assert params.random_ms(4096) > 5 * params.sequential_ms(4096)


def test_freed_page_retained_by_default(disk):
    f = disk.create_file()
    pid = disk.allocate_page(f)
    disk.write_page(pid, b"y" * disk.page_size)
    disk.free_page(pid)
    assert not disk.page_exists(pid)
    # Stale content still readable (crash recovery relies on this).
    assert disk.read_page(pid) == b"y" * disk.page_size
    disk.free_page(pid)  # double free tolerated in retain mode


def test_strict_mode_frees_for_real(strict_disk):
    f = strict_disk.create_file()
    pid = strict_disk.allocate_page(f)
    strict_disk.free_page(pid)
    with pytest.raises(StorageError):
        strict_disk.read_page(pid)
    with pytest.raises(StorageError):
        strict_disk.free_page(pid)


def test_num_pages_excludes_freed(disk):
    f = disk.create_file()
    pids = disk.allocate_pages(f, 3)
    disk.free_page(pids[1])
    assert disk.num_pages == 2
    assert disk.size_bytes == 2 * disk.page_size


def test_stats_snapshot_and_delta(disk):
    f = disk.create_file()
    pid = disk.allocate_page(f)
    before = disk.stats.snapshot()
    disk.read_page(pid)
    delta = disk.stats.delta_since(before)
    assert delta.reads == 1
    assert before.reads == 0  # snapshot is independent


def test_stats_aggregation_reads_declared_fields_only():
    """A stray attribute poked onto one ``DiskStats`` is not copied,
    subtracted or summed; every declared field is, each by itself."""
    names = [f.name for f in fields(DiskStats)]
    later = DiskStats(*range(10, 10 + len(names)))
    later.io_time_ms = 7.25
    earlier = DiskStats(*range(1, 1 + len(names)))
    earlier.io_time_ms = 0.5
    later.stray = 1000
    earlier.stray = "not a number"

    copy = later.snapshot()
    assert asdict(copy) == asdict(later)
    assert not hasattr(copy, "stray")

    delta = later.delta_since(earlier)
    assert not hasattr(delta, "stray")
    for name in names:
        assert getattr(delta, name) == getattr(later, name) - getattr(
            earlier, name
        )

    total = DiskStats()
    total.merge(later)
    total.merge(earlier)
    assert not hasattr(total, "stray")
    for name in names:
        assert getattr(total, name) == getattr(later, name) + getattr(
            earlier, name
        )
    # The stray stays where it was poked, unchanged.
    assert later.stray == 1000 and earlier.stray == "not a number"


def test_cpu_charge_advances_clock(disk):
    t0 = disk.clock.now_ms
    disk.charge_cpu_records(1000)
    assert disk.clock.now_ms > t0
    disk.charge_cpu_records(0)  # no-op


def test_clock_rejects_negative():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.advance_ms(-1)


def test_clock_reset():
    clock = SimClock()
    clock.advance_ms(125.0)
    assert clock.now_seconds == pytest.approx(0.125)
    clock.reset()
    assert clock.now_ms == 0.0


def test_minimum_page_size_enforced():
    with pytest.raises(ValueError):
        SimulatedDisk(page_size=64)


def test_file_of_page(disk):
    f = disk.create_file()
    pid = disk.allocate_page(f)
    assert disk.file_of(pid) == f
