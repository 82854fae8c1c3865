"""The page- and column-granular build path against its reference.

``tests/reference_build.py`` keeps the sorting free-space map, the
record-at-a-time append and the tuple-building CREATE INDEX.  Random
statement sequences (loads, a second load onto a partly filled last
page, inserts, deletes, vacuum, snapshot round trips, forks, index
builds in every mode) run on one database built by the engine and one
built by the reference; after every statement the two must agree on
the simulated clock, disk statistics, buffer-pool frames, RIDs and
free-space answers, and at the end on every durable page byte and
every index.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.errors import PageFullError, SchemaError
from repro.recovery.snapshot import capture_metadata, restore_metadata
from repro.storage.freespace import FreeSpaceMap
from tests import reference_build as ref
from tests.reference_build import ReferenceFreeSpaceMap

SCHEMA = TableSchema.of(
    "R",
    [Attribute.int_("A"), Attribute.int_("B"), Attribute.char("PAD", 40)],
)
#: 56-byte records: eight to a 512-byte page.
PAGE_SIZE = 512
FRAMES = 6
TREE = {"max_leaf_entries": 6, "max_inner_entries": 4}
#: Sizes the free-space map is asked about after every statement.
PROBE_SIZES = (1, 60, 64, 120, 300, 600)


def make_rows(seed, n):
    rng = random.Random(seed)
    return [
        (rng.randrange(12), rng.randrange(-30, 30), "p" * rng.randrange(41))
        for _ in range(n)
    ]


class Side:
    """One database, built either by the engine or by the reference."""

    def __init__(self, reference):
        self.reference = reference
        self.db = Database(page_size=PAGE_SIZE, memory_bytes=FRAMES * PAGE_SIZE)
        self.db.create_table(SCHEMA)
        if reference:
            ref.use_reference_heap(self.db, "R")

    @property
    def table(self):
        return self.db.table("R")

    def load(self, rows):
        if self.reference:
            return ref.load_table(self.db, "R", rows)
        return self.db.load_table("R", rows)

    def index(self, column, mode):
        if mode == "hash":
            if self.reference:
                return ref.create_hash_index(self.db, "R", column, 4)
            return self.db.create_hash_index("R", column, bucket_count=4)
        if self.reference:
            return ref.create_index(
                self.db, "R", column, build_method=mode, **TREE
            )
        return self.db.create_index("R", column, build_method=mode, **TREE)


def observe(side):
    """Everything the two sides must agree on after a statement."""
    db, heap = side.db, side.table.heap
    frames = [
        (page_id, bytes(frame.data), frame.dirty)
        for page_id, frame in db.pool._frames.items()
    ]
    pool = db.pool.stats
    fsm = heap.fsm
    return {
        "clock": db.clock.now_ms,
        "disk": vars(db.disk.stats).copy(),
        "pool": (pool.misses, pool.evictions, pool.dirty_writebacks),
        "frames": frames,
        "heap": (list(heap.page_ids), heap.record_count),
        "fsm": [(p, fsm.free_bytes(p)) for p in fsm.pages()],
        "first_fit": [fsm.find_page_with(size) for size in PROBE_SIZES],
        "indexes": {
            name: (
                (ix.tree.root_id, ix.tree.first_leaf_id, ix.tree.height,
                 ix.tree.entry_count)
                if ix.is_btree else ix.entry_count
            )
            for name, ix in side.table.indexes.items()
        },
    }


def apply(side, op):
    """Run one statement; returns what it returned (or raised)."""
    kind = op[0]
    db, table = side.db, side.table
    if kind == "load":
        if table.indexes:
            return None
        return side.load(make_rows(op[1], op[2]))
    if kind == "insert":
        return [db.insert("R", row) for row in make_rows(op[1], op[2])]
    if kind == "delete":
        live = [rid for rid, _ in db.scan("R")]
        picks = sorted({live[i % len(live)] for i in op[1]}) if live else []
        return [db.delete_record("R", rid) for rid in picks]
    if kind == "vacuum":
        return db.vacuum("R")
    if kind == "snapshot":
        if table.hash_indexes():
            return None
        restore_metadata(db, capture_metadata(db))
        return None
    if kind == "fork":
        side.db = db.fork()
        return None
    column, mode = op[1], op[2]
    name = ("H_R_" if mode == "hash" else "I_R_") + column
    if name in table.indexes:
        return None
    return side.index(column, mode).name


OPS = st.one_of(
    st.tuples(st.just("load"), st.integers(0, 999), st.integers(1, 30)),
    st.tuples(st.just("insert"), st.integers(0, 999), st.integers(1, 6)),
    st.tuples(
        st.just("delete"), st.lists(st.integers(0, 500), min_size=1, max_size=9)
    ),
    st.tuples(st.just("vacuum")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("fork")),
    st.tuples(
        st.just("index"),
        st.sampled_from(["A", "B"]),
        st.sampled_from(["bulk", "insert", "hash"]),
    ),
)


def assert_same_durable_state(engine, reference):
    engine.db.flush()
    reference.db.flush()
    assert observe(engine) == observe(reference)
    disk, ref_disk = engine.db.disk, reference.db.disk
    assert disk.page_ids() == ref_disk.page_ids()
    for page_id in disk.page_ids():
        assert disk.durable_image(page_id) == ref_disk.durable_image(page_id)
    for name, index in engine.table.indexes.items():
        if index.is_btree:
            other = reference.table.index(name).tree
            assert list(index.tree.items()) == list(other.items())


@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(st.just("load"), st.integers(0, 999), st.integers(1, 30)),
        min_size=1, max_size=3,
    ),
    st.lists(OPS, max_size=14),
)
def test_build_path_matches_reference(loads, ops):
    engine, reference = Side(False), Side(True)
    for op in loads + ops:
        assert apply(engine, op) == apply(reference, op), op
        assert observe(engine) == observe(reference), op
    assert_same_durable_state(engine, reference)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("record"), st.integers(0, 40),
                      st.integers(-5, 300)),
            st.tuples(st.just("forget"), st.integers(0, 40)),
            st.tuples(st.just("find"), st.integers(-2, 300)),
        ),
        max_size=80,
    )
)
def test_free_space_map_answers_first_fit_like_the_sorting_map(ops):
    fsm, oracle = FreeSpaceMap(), ReferenceFreeSpaceMap()
    for op in ops:
        if op[0] == "record":
            fsm.record(op[1], op[2])
            oracle.record(op[1], op[2])
        elif op[0] == "forget":
            fsm.forget(op[1])
            oracle.forget(op[1])
        else:
            assert fsm.find_page_with(op[1]) == oracle.find_page_with(op[1])
        assert list(fsm.pages()) == list(oracle.pages())
        assert len(fsm) == len(oracle)
    for size in range(0, 320, 7):
        assert fsm.find_page_with(size) == oracle.find_page_with(size)


def test_a_load_that_fails_part_way_keeps_the_rows_before_it():
    rows = make_rows(1, 20)
    bad = rows[:13] + [(1, "not an int", "x")] + rows[13:]
    engine, reference = Side(False), Side(True)
    for side in (engine, reference):
        side.load(rows[:5])
        with pytest.raises(SchemaError):
            side.load(bad)
    assert observe(engine) == observe(reference)
    assert engine.table.heap.record_count == 18
    engine.load(rows)
    reference.load(rows)
    assert_same_durable_state(engine, reference)


def test_a_record_larger_than_a_page_is_refused_alike():
    engine, reference = Side(False), Side(True)
    for side in (engine, reference):
        side.load(make_rows(2, 3))
        with pytest.raises(PageFullError):
            side.table.heap.append(bytes(PAGE_SIZE))
    assert observe(engine) == observe(reference)
    assert engine.table.heap.append(b"x" * 56) == (
        reference.table.heap.append(b"x" * 56)
    )
