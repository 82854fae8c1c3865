"""Tests for referential integrity and compound indexes."""

import pytest

from repro import Attribute, Database, TableSchema, bulk_delete
from repro.btree.maintenance import validate_tree
from repro.catalog.composite import CompositeKeyCodec
from repro.core.integrity import (
    ConstraintRegistry,
    OnDelete,
    cascade_bulk_delete,
    find_referencing_keys,
)
from repro.errors import (
    CatalogError,
    IntegrityViolationError,
    PlanningError,
    SchemaError,
)


# ----------------------------------------------------------------------
# composite key codec
# ----------------------------------------------------------------------
def test_codec_roundtrip():
    codec = CompositeKeyCodec.of(16, 16, 8)
    values = (1234, 567, 89)
    assert codec.unpack(codec.pack(values)) == values


def test_codec_preserves_lexicographic_order():
    codec = CompositeKeyCodec.of(10, 10)
    tuples = [(a, b) for a in (0, 3, 900) for b in (0, 5, 1023)]
    packed = [codec.pack(t) for t in tuples]
    assert sorted(packed) == [codec.pack(t) for t in sorted(tuples)]


def test_codec_range_checks():
    codec = CompositeKeyCodec.of(4)
    with pytest.raises(SchemaError):
        codec.pack((16,))
    with pytest.raises(SchemaError):
        codec.pack((-1,))
    with pytest.raises(SchemaError):
        codec.pack((1, 2))
    with pytest.raises(SchemaError):
        CompositeKeyCodec.of(40, 40)  # > 63 bits
    with pytest.raises(SchemaError):
        CompositeKeyCodec.of()


def test_codec_prefix_range():
    codec = CompositeKeyCodec.of(8, 8)
    lo, hi = codec.prefix_range((7,))
    assert codec.unpack(lo) == (7, 0)
    assert codec.unpack(hi) == (7, 255)
    assert codec.prefix_range((7, 3)) == (codec.pack((7, 3)),) * 2


# ----------------------------------------------------------------------
# compound indexes through the engine
# ----------------------------------------------------------------------
def build_compound_db(n=200):
    db = Database(page_size=512, memory_bytes=64 * 1024)
    schema = TableSchema.of(
        "T",
        [Attribute.int_("a"), Attribute.int_("b"), Attribute.int_("c")],
    )
    db.create_table(schema)
    rows = [(i, i % 16, i % 7) for i in range(n)]
    db.load_table("T", rows)
    db.create_index("T", "a", unique=True)
    codec = CompositeKeyCodec.of(8, 16)
    db.create_index(
        "T", "b", name="I_bc", columns=("b", "c"), codec=codec
    )
    return db, codec


def test_compound_index_builds_and_scans():
    db, codec = build_compound_db()
    index = db.table("T").index("I_bc")
    assert index.is_compound
    assert index.tree.entry_count == 200
    validate_tree(index.tree)
    lo, hi = codec.prefix_range((5,))
    matches = list(index.tree.range_scan(lo, hi))
    expected = [i for i in range(200) if i % 16 == 5]
    assert len(matches) == len(expected)


def test_compound_index_maintained_by_insert_delete():
    db, codec = build_compound_db()
    rid = db.insert("T", (9999, 3, 4))
    index = db.table("T").index("I_bc")
    assert index.tree.contains(codec.pack((3, 4)), rid.pack())
    db.delete_record("T", rid)
    assert not index.tree.contains(codec.pack((3, 4)), rid.pack())
    validate_tree(index.tree)


def test_compound_index_maintained_by_bulk_delete():
    db, codec = build_compound_db()
    keys = list(range(0, 200, 4))
    result = bulk_delete(db, "T", "a", keys)
    assert result.records_deleted == 50
    index = db.table("T").index("I_bc")
    assert index.tree.entry_count == 150
    validate_tree(index.tree)
    survivors = {v[0] for _, v in db.scan("T")}
    assert survivors == set(range(200)) - set(keys)


def test_compound_index_requires_codec():
    db, codec = build_compound_db()
    from repro.catalog.catalog import IndexInfo

    with pytest.raises(CatalogError):
        IndexInfo(
            name="bad", table_name="T", column="b",
            tree=db.table("T").index("I_bc").tree,
            columns=("b", "c"),  # no codec
        )


def test_compound_not_usable_as_driving_index():
    db, codec = build_compound_db()
    table = db.table("T")
    assert table.indexes_on("b") == []  # compound cannot drive b-deletes
    assert [ix.name for ix in table.indexes_covering("b")] == ["I_bc"]


# ----------------------------------------------------------------------
# referential integrity
# ----------------------------------------------------------------------
def build_parent_child(cascade=False, index_child=True):
    db = Database(page_size=512, memory_bytes=64 * 1024)
    db.create_table(TableSchema.of(
        "parent", [Attribute.int_("pk"), Attribute.char("p", 20)]
    ))
    db.create_table(TableSchema.of(
        "child", [Attribute.int_("ck"), Attribute.int_("parent_ref")]
    ))
    db.load_table("parent", [(i, "p") for i in range(100)])
    # children reference even parents, two children each
    db.load_table(
        "child",
        [(1000 + i, (i // 2) * 2 % 100) for i in range(200)],
    )
    db.create_index("parent", "pk", unique=True)
    db.create_index("child", "ck", unique=True)
    if index_child:
        db.create_index("child", "parent_ref")
    constraints = ConstraintRegistry(db)
    constraints.add_foreign_key(
        "child", "parent_ref", "parent", "pk",
        on_delete=OnDelete.CASCADE if cascade else OnDelete.RESTRICT,
    )
    return db, constraints


def test_restrict_blocks_before_any_modification():
    db, constraints = build_parent_child()
    before = sorted(v for _, v in db.scan("parent"))
    with pytest.raises(IntegrityViolationError):
        cascade_bulk_delete(
            db, constraints, "parent", "pk", [0, 2, 4]
        )
    # Nothing at all was modified — the check ran first.
    assert sorted(v for _, v in db.scan("parent")) == before
    assert db.table("parent").index("I_parent_pk").tree.entry_count == 100


def test_restrict_allows_unreferenced_deletes():
    db, constraints = build_parent_child()
    # Odd parents have no children.
    result, report = cascade_bulk_delete(
        db, constraints, "parent", "pk", [1, 3, 5]
    )
    assert result.records_deleted == 3
    assert report.cascade_deleted == 0
    assert len(report.checked) == 1


def test_cascade_deletes_children_first():
    db, constraints = build_parent_child(cascade=True)
    result, report = cascade_bulk_delete(
        db, constraints, "parent", "pk", [0, 2, 4]
    )
    assert result.records_deleted == 3
    # Children referencing 0/2/4: ck values derived from the loader.
    refs = {v[1] for _, v in db.scan("child")}
    assert refs.isdisjoint({0, 2, 4})
    assert report.cascade_deleted > 0
    for table in ("parent", "child"):
        for ix in db.table(table).indexes.values():
            validate_tree(ix.tree)


def test_cascade_without_child_index_scans():
    db, constraints = build_parent_child(cascade=True, index_child=False)
    result, report = cascade_bulk_delete(
        db, constraints, "parent", "pk", [0]
    )
    assert result.records_deleted == 1
    refs = {v[1] for _, v in db.scan("child")}
    assert 0 not in refs


def test_find_referencing_keys_matches_scan():
    db_i, constraints_i = build_parent_child()
    db_s, constraints_s = build_parent_child(index_child=False)
    fk_i = constraints_i.all_constraints()[0]
    fk_s = constraints_s.all_constraints()[0]
    keys = [0, 2, 3, 98]
    assert find_referencing_keys(db_i, fk_i, keys) == find_referencing_keys(
        db_s, fk_s, keys
    )


def test_cascade_chain_grandchildren():
    db, constraints = build_parent_child(cascade=True)
    db.create_table(TableSchema.of(
        "grandchild", [Attribute.int_("gk"), Attribute.int_("child_ref")]
    ))
    # Each grandchild references one child key.
    db.load_table(
        "grandchild", [(5000 + i, 1000 + i) for i in range(200)]
    )
    db.create_index("grandchild", "child_ref")
    constraints.add_foreign_key(
        "grandchild", "child_ref", "child", "ck",
        on_delete=OnDelete.CASCADE,
    )
    result, report = cascade_bulk_delete(
        db, constraints, "parent", "pk", [0]
    )
    assert result.records_deleted == 1
    child_refs = {v[1] for _, v in db.scan("grandchild")}
    surviving_children = {v[0] for _, v in db.scan("child")}
    assert child_refs <= surviving_children


def test_foreign_key_validation():
    db, constraints = build_parent_child()
    with pytest.raises(CatalogError):
        constraints.add_foreign_key("child", "nope", "parent", "pk")
    with pytest.raises(CatalogError):
        constraints.add_foreign_key("child", "ck", "parent", "nope")


def test_cascade_cycle_detected():
    db = Database(page_size=512, memory_bytes=64 * 1024)
    db.create_table(TableSchema.of(
        "x", [Attribute.int_("k"), Attribute.int_("ref")]
    ))
    db.load_table("x", [(i, i) for i in range(10)])
    db.create_index("x", "k", unique=True)
    constraints = ConstraintRegistry(db)
    constraints.add_foreign_key("x", "k", "x", "k",
                                on_delete=OnDelete.CASCADE)
    with pytest.raises(PlanningError):
        cascade_bulk_delete(db, constraints, "x", "k", [1])
