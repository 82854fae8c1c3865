"""Layer probes: fixed-input micro-loops, one public function each.

Every ``*_ns`` per-layer metric that is not derived from a workload
statement comes from here.  Inputs are fixed (``random.Random(0)``, not
the workload seed) so a probe measures the layer, not the data; each
value is the fastest of five batches.  Probes run in the traced run only
and never touch a workload's database.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from benchmarks.suite.hostclock import fastest_ns_per_op
from repro.btree.tree import BLinkTree
from repro.core.bulk_ops import bd_index_sort_merge
from repro.hashindex import HashIndex
from repro.lsm.planning import compile_tombstones
from repro.query.hashtable import BoundedHashSet
from repro.query.partition import range_partition
from repro.query.sort import sort_tuples
from repro.recovery.wal import WriteAheadLog
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.page_formats import SlottedPage
from repro.storage.serializer import RecordSerializer
from repro.workload.generator import generate_rows, make_schema

PAGE_SIZE = 4096
TREE_ENTRIES = 8_000


def _pool(frames: int) -> BufferPool:
    return BufferPool(SimulatedDisk(page_size=PAGE_SIZE), frames)


def _records(count: int) -> List[bytes]:
    serializer = RecordSerializer(make_schema())
    rows, _ = generate_rows(count, seed=0)
    return [serializer.pack(row) for row in rows]


# ----------------------------------------------------------------------
# storage.disk / storage.buffer
# ----------------------------------------------------------------------
def probe_disk() -> Dict[str, float]:
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    pages = disk.allocate_pages(disk.create_file(), 256)
    image = bytes(range(256)) * (PAGE_SIZE // 256)

    # The probes time the device itself, below the pool, on purpose.
    def reads() -> int:
        for page_id in pages:
            disk.read_page(page_id)  # lint: allow(raw-page-io)
        return len(pages)

    def writes() -> int:
        for page_id in pages:
            disk.write_page(page_id, image)  # lint: allow(raw-page-io)
        return len(pages)

    writes()
    return {
        "disk.read_page_ns": fastest_ns_per_op(reads),
        "disk.write_page_ns": fastest_ns_per_op(writes),
    }


def probe_pool() -> Dict[str, float]:
    pool = _pool(16)
    pages = pool.disk.allocate_pages(pool.disk.create_file(), 256)

    def hits() -> int:
        hot = pages[0]
        for _ in range(2_000):
            with pool.pin(hot):
                pass
        return 2_000

    def misses() -> int:
        # 256 pages cycled through 16 LRU frames: every pin misses.
        for page_id in pages:
            with pool.pin(page_id):
                pass
        return len(pages)

    return {
        "pool.pin_hit_ns": fastest_ns_per_op(hits),
        "pool.pin_miss_ns": fastest_ns_per_op(misses),
    }


# ----------------------------------------------------------------------
# storage.page_formats / storage.serializer / storage.heap
# ----------------------------------------------------------------------
def probe_page() -> Dict[str, float]:
    records = _records(7)  # seven 512-byte records fill a 4 KiB page

    def filled() -> SlottedPage:
        page = SlottedPage.format_empty(bytearray(PAGE_SIZE))
        for record in records:
            page.insert(record)
        return page

    def inserts() -> int:
        for _ in range(100):
            filled()
        return 100 * len(records)

    full = filled()

    def reads() -> int:
        for _ in range(300):
            for slot in range(len(records)):
                full.read(slot)
        return 300 * len(records)

    def holed() -> List[SlottedPage]:
        pages = [filled() for _ in range(100)]
        for page in pages:
            for slot in (1, 3, 5):
                page.delete(slot)
        return pages

    def compacts(pages: List[SlottedPage]) -> int:
        for page in pages:
            page.compact()
        return len(pages)

    return {
        "page.insert_ns": fastest_ns_per_op(inserts),
        "page.read_ns": fastest_ns_per_op(reads),
        "page.compact_ns": fastest_ns_per_op(compacts, prepare=holed),
    }


def probe_serializer() -> Dict[str, float]:
    serializer = RecordSerializer(make_schema())
    rows, _ = generate_rows(500, seed=0)
    payloads = [serializer.pack(row) for row in rows]

    def packs() -> int:
        for row in rows:
            serializer.pack(row)
        return len(rows)

    def unpacks() -> int:
        for payload in payloads:
            serializer.unpack(payload)
        return len(payloads)

    return {
        "serializer.pack_ns": fastest_ns_per_op(packs),
        "serializer.unpack_ns": fastest_ns_per_op(unpacks),
    }


def probe_heap() -> Dict[str, float]:
    records = _records(1_000)

    def loaded() -> HeapFile:
        heap = HeapFile(_pool(64))
        for record in records:
            heap.append(record)
        return heap

    def inserts() -> int:
        heap = HeapFile(_pool(64))
        for record in records:
            heap.insert(record)
        return len(records)

    scanned = loaded()

    def scans() -> int:
        return sum(1 for _ in scanned.scan())

    def doomed():
        heap = loaded()
        return heap, [rid for rid, _ in heap.scan()][::4]

    def deletes(prepared) -> int:
        heap, rids = prepared
        return len(heap.delete_many_sorted(rids))

    return {
        "heap.insert_ns": fastest_ns_per_op(inserts),
        "heap.scan_row_ns": fastest_ns_per_op(scans),
        "heap.delete_many_row_ns": fastest_ns_per_op(deletes, prepare=doomed),
    }


# ----------------------------------------------------------------------
# btree / hashindex
# ----------------------------------------------------------------------
def probe_btree() -> Dict[str, float]:
    rng = random.Random(0)
    keys = rng.sample(range(10 * TREE_ENTRIES), TREE_ENTRIES)
    entries = sorted((key, i) for i, key in enumerate(keys))
    present = set(keys)
    absent = [k for k in rng.sample(range(10 * TREE_ENTRIES), 2_000)
              if k not in present][:1_000]
    wanted = rng.sample(keys, 1_000)
    doomed = sorted(entries[::7])

    def loaded() -> BLinkTree:
        tree = BLinkTree(_pool(256))
        tree.bulk_load(entries)
        return tree

    def bulk_loads() -> int:
        loaded()
        return len(entries)

    searched = loaded()

    def searches() -> int:
        for key in wanted:
            searched.search(key)
        return len(wanted)

    def inserts(tree: BLinkTree) -> int:
        for i, key in enumerate(absent):
            tree.insert(key, i)
        return len(absent)

    def deletes(tree: BLinkTree) -> int:
        for key in wanted:
            tree.delete(key)
        return len(wanted)

    def sweeps(tree: BLinkTree) -> int:
        bd_index_sort_merge(tree, doomed, tree.pool.disk)
        return len(entries)

    before = searched.pool.stats.snapshot()
    searches()
    touched = searched.pool.stats.delta_since(before).accesses
    return {
        "btree.bulk_load_entry_ns": fastest_ns_per_op(bulk_loads),
        "btree.search_ns": fastest_ns_per_op(searches),
        "btree.insert_ns": fastest_ns_per_op(inserts, prepare=loaded),
        "btree.delete_ns": fastest_ns_per_op(deletes, prepare=loaded),
        "btree.sweep_entry_ns": fastest_ns_per_op(sweeps, prepare=loaded),
        "btree.pages_per_search": touched / len(wanted),
    }


def probe_hashindex() -> Dict[str, float]:
    rng = random.Random(0)
    keys = rng.sample(range(40_000), 4_000)
    index = HashIndex.sized_for(_pool(256), len(keys))
    for i, key in enumerate(keys):
        index.insert(key, i)
    wanted = rng.sample(keys, 1_000)
    doomed = iter(keys)

    def searches() -> int:
        for key in wanted:
            index.search(key)
        return len(wanted)

    def deletes() -> int:
        for _ in range(200):
            index.delete(next(doomed))
        return 200

    return {
        "hashindex.search_ns": fastest_ns_per_op(searches),
        "hashindex.delete_ns": fastest_ns_per_op(deletes),
    }


# ----------------------------------------------------------------------
# query / recovery / lsm
# ----------------------------------------------------------------------
def probe_query() -> Dict[str, float]:
    rng = random.Random(0)
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    pairs: List[Tuple[int, ...]] = [
        (key, i) for i, key in enumerate(rng.sample(range(80_000), 8_000))
    ]
    members = BoundedHashSet(1 << 20).build(key for key, _ in pairs[::2])

    def in_memory() -> int:
        return len(sort_tuples(disk, pairs, memory_bytes=1 << 20, width=2))

    def spilling() -> int:
        # 16 KiB of sort memory holds 1024 pairs: eight spilled runs.
        return len(sort_tuples(disk, pairs, memory_bytes=16 << 10, width=2))

    def probes() -> int:
        return sum(1 for key, _ in pairs if key in members) + len(pairs) // 2

    def partitions() -> int:
        parts = range_partition(
            disk, pairs, key_index=0, width=2, max_tuples_per_partition=1_000
        )
        for part in parts:
            part.free()
        return len(pairs)

    return {
        "sort.mem_key_ns": fastest_ns_per_op(in_memory),
        "sort.spill_key_ns": fastest_ns_per_op(spilling),
        "hashtable.probe_ns": fastest_ns_per_op(probes),
        "partition.key_ns": fastest_ns_per_op(partitions),
    }


def probe_wal() -> Dict[str, float]:
    log = WriteAheadLog(SimulatedDisk(page_size=PAGE_SIZE))
    entries = [(key, key + 1) for key in range(8)]

    def appends() -> int:
        for _ in range(500):
            log.append("leaf_deletes", structure="I_R_B", entries=entries)
        return 500

    return {"wal.append_ns": fastest_ns_per_op(appends)}


def probe_lsm_compile() -> Dict[str, float]:
    rng = random.Random(0)
    # Scattered keys plus a few consecutive runs long enough to compile
    # into range tombstones.
    keys = rng.sample(range(1_000_000), 6_000)
    for start in (2_000_000, 2_100_000, 2_200_000, 2_300_000):
        keys.extend(range(start, start + 500))
    rng.shuffle(keys)

    def compiles() -> int:
        compile_tombstones(keys)
        return len(keys)

    return {"lsm.compile_key_ns": fastest_ns_per_op(compiles)}


PROBES: Tuple[Callable[[], Dict[str, float]], ...] = (
    probe_disk,
    probe_pool,
    probe_page,
    probe_serializer,
    probe_heap,
    probe_btree,
    probe_hashindex,
    probe_query,
    probe_wal,
    probe_lsm_compile,
)
