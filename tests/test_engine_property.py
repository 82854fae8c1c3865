"""Engine-level property tests: the whole database against a dict model.

Hypothesis drives sequences of bulk deletes, record inserts, point
deletes and bulk updates against a reference model, verifying after
every step that the heap and every index agree with it exactly.
"""

import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro import Attribute, Database, TableSchema, bulk_delete, bulk_update
from repro.btree.maintenance import validate_tree
from repro.core.plans import BdMethod


def build_db(rows):
    db = Database(page_size=512, memory_bytes=64 * 1024)
    db.create_table(TableSchema.of(
        "t", [Attribute.int_("k"), Attribute.int_("v")]
    ))
    db.load_table("t", rows)
    db.create_index("t", "k", unique=True)
    db.create_index("t", "v")
    return db


#: Every layout ``Database`` can create, by the name the model test
#: reports, and the interior bounds on ``k`` (keys run 0..600) of the
#: range-sharded ones.
LAYOUTS = ("heap", "lsm", "1-shard", "3-shard")
SHARD_BOUNDS = {"1-shard": (), "3-shard": (170, 340)}


def build_layout(layout, rows):
    """The same rows and (where the layout has them) indexes as
    :func:`build_db`, on the named layout."""
    if layout == "heap":
        return build_db(rows)
    db = Database(page_size=512, memory_bytes=64 * 1024)
    schema = TableSchema.of("t", [Attribute.int_("k"), Attribute.int_("v")])
    if layout == "lsm":
        db.create_table(schema, engine="lsm", key_column="k")
        db.load_table("t", rows)
        return db
    db.create_sharded_table(schema, "k", SHARD_BOUNDS[layout])
    db.load_table("t", rows)
    db.create_sharded_index("t", "k", unique=True)
    db.create_sharded_index("t", "v")
    return db


def check_against_model(db, model):
    """model: dict k -> v."""
    scanned = {row[0]: row[1] for _, row in db.scan("t")}
    assert scanned == model
    table = db.table("t")
    if table.lsm is not None:
        return  # no indexes; record_count is an upper bound until vacuum
    assert table.record_count == len(model)
    k_keys, v_keys = [], []
    for part in table.shards or [table]:
        k_tree = part.index(f"I_{part.name}_k").tree
        v_tree = part.index(f"I_{part.name}_v").tree
        validate_tree(k_tree)
        validate_tree(v_tree)
        k_keys.extend(k for k, _ in k_tree.items())
        v_keys.extend(v for v, _ in v_tree.items())
    assert sorted(k_keys) == sorted(model)
    assert sorted(v_keys) == sorted(model.values())


row_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=50),
    min_size=1,
    max_size=120,
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=row_strategy,
    data=st.data(),
)
def test_bulk_delete_matches_model(rows, data):
    """One statement entry point, every layout, one dict model."""
    method = data.draw(st.sampled_from(list(BdMethod)[:3]))
    victims = data.draw(
        st.lists(st.integers(min_value=0, max_value=600), max_size=60)
    )
    dead = set(victims)
    model = {k: v for k, v in rows.items() if k not in dead}
    for layout in LAYOUTS:
        note(f"layout: {layout}")
        db = build_layout(layout, list(rows.items()))
        bulk_delete(db, "t", "k", victims, prefer_method=method)
        check_against_model(db, model)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=row_strategy, delta=st.integers(min_value=1, max_value=100),
       threshold=st.integers(min_value=0, max_value=50))
def test_bulk_update_matches_model(rows, delta, threshold):
    model = dict(rows)
    db = build_db(list(model.items()))
    bulk_update(
        db, "t", "v",
        compute=lambda row, d=delta: row[1] + d,
        where=lambda row, t=threshold: row[1] >= t,
    )
    for k, v in model.items():
        if v >= threshold:
            model[k] = v + delta
    check_against_model(db, model)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=row_strategy, data=st.data())
def test_mixed_operation_sequences(rows, data):
    model = dict(rows)
    db = build_db(list(model.items()))
    next_key = 10_000
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        op = data.draw(st.sampled_from(["bulk", "insert", "point"]))
        if op == "bulk" and model:
            victims = data.draw(
                st.lists(st.sampled_from(sorted(model)), max_size=25)
            )
            bulk_delete(db, "t", "k", victims)
            for k in victims:
                model.pop(k, None)
        elif op == "insert":
            value = data.draw(st.integers(min_value=0, max_value=50))
            db.insert("t", (next_key, value))
            model[next_key] = value
            next_key += 1
        elif op == "point" and model:
            k = data.draw(st.sampled_from(sorted(model)))
            rid = None
            for r, row in db.scan("t"):
                if row[0] == k:
                    rid = r
                    break
            db.delete_record("t", rid)
            del model[k]
    check_against_model(db, model)
