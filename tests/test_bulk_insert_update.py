"""Tests for set-oriented B-tree insertion and vertical bulk UPDATE."""

import random

import pytest

from repro import Database
from repro.btree.bulk_insert import bulk_insert_sorted
from repro.btree.maintenance import validate_tree
from repro.btree.tree import BLinkTree
from repro.core.bulk_update import bulk_update, traditional_update
from repro.errors import PlanningError, SchemaError, UniqueViolationError
from repro.media.scrub import reconcile_structures
from repro.sql.interpreter import SqlSession
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests.conftest import populate


# ----------------------------------------------------------------------
# bulk insert
# ----------------------------------------------------------------------
def make_tree(entries=(), leaf_cap=8, unique=False):
    disk = SimulatedDisk(page_size=512)
    pool = BufferPool(disk, capacity_pages=64)
    tree = BLinkTree(pool, max_leaf_entries=leaf_cap,
                     max_inner_entries=leaf_cap, unique=unique)
    if entries:
        tree.bulk_load(sorted(entries))
    return tree, disk


def test_bulk_insert_interleaves():
    tree, disk = make_tree([(i, i) for i in range(0, 100, 2)])
    result = bulk_insert_sorted(tree, [(i, i) for i in range(1, 100, 2)],
                                disk)
    assert result.inserted == 50
    assert list(tree.items()) == [(i, i) for i in range(100)]
    validate_tree(tree)


def test_bulk_insert_appends_past_the_end():
    tree, disk = make_tree([(i, i) for i in range(20)])
    bulk_insert_sorted(tree, [(i, i) for i in range(100, 140)], disk)
    assert tree.entry_count == 60
    assert tree.search_one(120) == 120
    validate_tree(tree)


def test_bulk_insert_prepends_before_the_start():
    tree, disk = make_tree([(i, i) for i in range(100, 120)])
    bulk_insert_sorted(tree, [(i, i) for i in range(10)], disk)
    assert [k for k, _ in tree.items()] == list(range(10)) + list(
        range(100, 120)
    )
    validate_tree(tree)


def test_bulk_insert_into_empty_tree():
    tree, disk = make_tree()
    bulk_insert_sorted(tree, [(1, 1), (2, 2)], disk)
    assert tree.entry_count == 2
    validate_tree(tree)


def test_bulk_insert_visits_each_leaf_once():
    tree, disk = make_tree([(i, i) for i in range(200)])
    leaves = tree.leaf_count()
    result = bulk_insert_sorted(
        tree, sorted((i + 1000, i) for i in range(0, 200, 3)), disk
    )
    # Every leaf visited once, plus peeks at right siblings (cheap hits).
    assert result.pages_visited == leaves


def test_bulk_insert_unsorted_rejected():
    tree, disk = make_tree()
    with pytest.raises(ValueError):
        bulk_insert_sorted(tree, [(2, 0), (1, 0)], disk)


def test_bulk_insert_unique_violation():
    tree, disk = make_tree([(5, 5)], unique=True)
    with pytest.raises(UniqueViolationError):
        bulk_insert_sorted(tree, [(5, 9)], disk)


def test_bulk_insert_equals_incremental():
    rng = random.Random(8)
    existing = sorted((rng.randrange(10_000), i) for i in range(150))
    incoming = sorted(
        (rng.randrange(10_000), 1000 + i) for i in range(80)
    )
    bulk_tree, disk = make_tree(existing)
    bulk_insert_sorted(bulk_tree, incoming, disk)
    incr_tree, _ = make_tree(existing)
    for key, value in incoming:
        incr_tree.insert(key, value)
    assert sorted(bulk_tree.items()) == sorted(incr_tree.items())
    validate_tree(bulk_tree)


# ----------------------------------------------------------------------
# bulk update
# ----------------------------------------------------------------------
def fresh(n=300):
    db = Database(page_size=512, memory_bytes=64 * 1024)
    values = populate(db, n=n)
    db.flush()
    db.clock.reset()
    return db, values


def test_bulk_update_by_predicate():
    db, values = fresh()
    threshold = sorted(values["B"])[150]  # median
    result = bulk_update(
        db, "R", "B",
        compute=lambda row: row[1] + 1_000_000,
        where=lambda row: row[1] >= threshold,
    )
    assert result.records_updated == 150
    table = db.table("R")
    validate_tree(table.index("I_R_B").tree)
    assert table.index("I_R_B").tree.entry_count == 300
    updated = [v[1] for _, v in db.scan("R") if v[1] >= 1_000_000]
    assert len(updated) == 150
    # Index reflects the new values, not the old ones.
    for b in updated:
        assert table.index("I_R_B").tree.contains(b)
        assert not table.index("I_R_B").tree.contains(b - 1_000_000)


def test_bulk_update_by_key_list():
    db, values = fresh()
    keys = values["A"][:60]
    result = bulk_update(
        db, "R", "B",
        compute=lambda row: row[1] + 5_000_000,
        where_column="A",
        where_keys=keys,
    )
    assert result.records_updated == 60
    a_index = db.table("R").index("I_R_A")
    validate_tree(a_index.tree)
    assert a_index.tree.entry_count == 300  # A untouched: no maintenance


def test_bulk_update_rids_stable():
    db, values = fresh()
    before = {rid: v[0] for rid, v in db.scan("R")}
    bulk_update(db, "R", "B", compute=lambda row: row[1] + 1,
                where=lambda row: True)
    after = {rid: v[0] for rid, v in db.scan("R")}
    assert before == after  # same rids, same A values


def test_bulk_update_noop_rows_skipped():
    db, values = fresh()
    result = bulk_update(db, "R", "B", compute=lambda row: row[1],
                         where=lambda row: True)
    assert result.records_updated == 0


def test_bulk_update_equals_traditional():
    db_b, values = fresh()
    db_t, _ = fresh()
    compute = lambda row: row[1] * 2 + 1  # noqa: E731
    where = lambda row: row[0] % 3 == 0  # noqa: E731
    r_bulk = bulk_update(db_b, "R", "B", compute=compute, where=where)
    r_trad = traditional_update(db_t, "R", "B", compute=compute,
                                where=where)
    assert r_bulk.records_updated == r_trad.records_updated > 0
    assert sorted(v for _, v in db_b.scan("R")) == sorted(
        v for _, v in db_t.scan("R")
    )
    assert sorted(db_b.table("R").index("I_R_B").tree.items()) == sorted(
        db_t.table("R").index("I_R_B").tree.items()
    )


def test_bulk_update_cheaper_than_traditional():
    """The paper's §1 claim: bulk delete+insert beats per-record index
    maintenance for large updates."""
    db_b, values = fresh()
    db_t, _ = fresh()
    compute = lambda row: row[1] + 7_000_000  # noqa: E731
    where = lambda row: True  # update everything
    r_bulk = bulk_update(db_b, "R", "B", compute=compute, where=where)
    r_trad = traditional_update(db_t, "R", "B", compute=compute,
                                where=where)
    assert r_bulk.elapsed_ms < r_trad.elapsed_ms


def test_bulk_update_argument_validation():
    db, values = fresh()
    with pytest.raises(PlanningError):
        bulk_update(db, "R", "B", compute=lambda r: 1)  # no WHERE at all
    with pytest.raises(PlanningError):
        bulk_update(db, "R", "B", compute=lambda r: 1,
                    where=lambda r: True, where_column="A",
                    where_keys=[1])
    with pytest.raises(SchemaError):
        bulk_update(db, "R", "PAD", compute=lambda r: 1,
                    where=lambda r: True)
    with pytest.raises(SchemaError):
        bulk_update(db, "R", "B", compute=lambda r: "nope",
                    where=lambda r: True)


# ----------------------------------------------------------------------
# unique indexes: a violating UPDATE fails before it writes anything
# ----------------------------------------------------------------------
def unique_session(hash_index=False):
    db = Database()
    session = SqlSession(db)
    session.execute("CREATE TABLE R (A INT, B INT)")
    if hash_index:
        db.create_hash_index("R", "A", name="IA", unique=True)
    else:
        session.execute("CREATE UNIQUE INDEX IA ON R (A)")
    for i in range(20):
        session.execute(f"INSERT INTO R VALUES ({i}, {10 * i})")
    return db, session


def rows(db):
    return sorted(row for _, row in db.scan("R"))


@pytest.mark.parametrize("hash_index", [False, True])
@pytest.mark.parametrize("statement", [
    # A new key hits a row the statement does not touch.
    "UPDATE R SET A = A + 4 WHERE B < 50",
    # Two rewritten rows would share one key.
    "UPDATE R SET A = 77 WHERE B < 50",
])
def test_a_failing_unique_update_leaves_the_table_as_it_was(
    statement, hash_index
):
    db, session = unique_session(hash_index)
    before = rows(db)
    with pytest.raises(UniqueViolationError):
        session.execute(statement)
    assert rows(db) == before
    assert reconcile_structures(db) == []


@pytest.mark.parametrize("hash_index", [False, True])
def test_a_unique_update_may_move_keys_onto_keys_it_vacates(hash_index):
    # Set semantics, as the SQL standard checks at statement end: every
    # key shifts onto one that another rewritten row leaves.
    db, session = unique_session(hash_index)
    session.execute("UPDATE R SET A = A + 1 WHERE B >= 100")
    assert [a for a, _ in rows(db)] == list(range(10)) + list(range(11, 21))
    assert reconcile_structures(db) == []
