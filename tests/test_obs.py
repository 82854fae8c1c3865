"""Accounting invariants of the ``repro.obs`` observability layer.

The pinned guarantees:

* spans reconcile **exactly** — the root span's inclusive I/O equals
  the simulated disk's delta over the traced region, and the sum of
  every span's exclusive (``self_*``) cost equals the root's inclusive
  cost,
* observation is read-only — a traced run costs exactly what the same
  untraced run costs (simulated clock and disk counters identical),
* disabled means free — ``db.obs`` is ``None`` by default, hook sites
  are one attribute test, and no metric objects exist anywhere,
* metric totals agree with the storage layer's own counters.
"""
# Reconciliation is pinned with exact equality on purpose: span
# deltas must match disk counters bit-for-bit, not approximately:
# lint: allow-file(float-cost-eq)

from __future__ import annotations

import pytest

from repro.catalog.database import Database
from repro.catalog.schema import Attribute, TableSchema
from repro.core.executor import bulk_delete
from repro.core.integrity import ForeignKey, find_referencing_keys
from repro.core.traditional import traditional_delete
from repro.obs.export import export_document, trace_entry
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer, iter_spans, observed
from repro.obs.schema import validate_trace
from repro.obs.trace import NULL_SPAN, Span, Tracer, maybe_span
from repro.storage.disk import SimClock, SimulatedDisk
from tests.conftest import populate


def fresh_db(**populate_kw):
    db = Database(page_size=512, memory_bytes=64 * 1024)
    values = populate(db, **populate_kw)
    return db, values


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
def test_counter_accumulates_and_rejects_decrease():
    reg = MetricsRegistry()
    reg.counter("disk.reads").inc()
    reg.counter("disk.reads").inc(4)
    assert reg.value("disk.reads") == 5
    with pytest.raises(ValueError):
        reg.counter("disk.reads").inc(-1)


def test_gauge_is_last_value_wins():
    reg = MetricsRegistry()
    reg.gauge("buffer.fill").set(0.25)
    reg.gauge("buffer.fill").set(0.75)
    assert reg.value("buffer.fill") == 0.75


def test_timer_accumulates_simulated_ms():
    clock = SimClock()
    reg = MetricsRegistry(clock=clock)
    reg.timer("io.ms").add_ms(3.0)
    with reg.timer("io.ms").time():
        clock.advance_ms(2.5)
    assert reg.value("io.ms") == pytest.approx(5.5)
    assert reg.timer("io.ms").count == 2
    with pytest.raises(ValueError):
        reg.timer("io.ms").add_ms(-1.0)


def test_metric_kind_is_sticky():
    reg = MetricsRegistry()
    reg.counter("disk.reads")
    with pytest.raises(TypeError):
        reg.gauge("disk.reads")
    with pytest.raises(TypeError):
        reg.timer("disk.reads")


def test_subtree_reads_one_hierarchy_level():
    reg = MetricsRegistry()
    reg.counter("disk.read.random").inc(2)
    reg.counter("disk.read.sequential").inc(3)
    reg.counter("buffer.hits").inc(9)
    assert reg.subtree("disk.read") == {
        "disk.read.random": 2,
        "disk.read.sequential": 3,
    }
    assert "buffer.hits" not in reg.subtree("disk")


def test_as_tree_nests_dotted_names():
    reg = MetricsRegistry()
    reg.counter("disk.reads").inc(7)
    reg.counter("disk.read.random").inc(2)
    tree = reg.as_tree()
    assert tree["disk"]["reads"] == 7
    assert tree["disk"]["read"]["random"] == 2


def test_metrics_are_lazy():
    reg = MetricsRegistry()
    assert len(reg) == 0
    assert reg.value("never.touched", default=-1) == -1
    assert len(reg) == 0  # value() must not create


# ---------------------------------------------------------------------------
# span mechanics
# ---------------------------------------------------------------------------
def test_spans_nest_and_split_inclusive_exclusive():
    disk = SimulatedDisk(page_size=512)
    tracer = Tracer(disk)
    with tracer.span("parent") as parent:
        disk.clock.advance_ms(10.0)
        with tracer.span("child") as child:
            disk.clock.advance_ms(4.0)
        disk.clock.advance_ms(1.0)
    root = tracer.root
    assert root is parent.span
    assert root.children == [child.span]
    assert root.elapsed_ms == pytest.approx(15.0)
    assert root.self_ms == pytest.approx(11.0)
    assert child.span.elapsed_ms == pytest.approx(4.0)
    assert root.closed and child.span.closed


def test_out_of_order_close_raises():
    disk = SimulatedDisk(page_size=512)
    tracer = Tracer(disk)
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(RuntimeError, match="closed out of order"):
        outer.__exit__(None, None, None)


def test_null_span_is_shared_and_inert():
    assert maybe_span(None, "anything") is NULL_SPAN
    with maybe_span(None, "anything") as span:
        assert span.set(records=3) is NULL_SPAN


def test_double_attach_raises(db):
    Observer.attach(db)
    try:
        with pytest.raises(RuntimeError):
            Observer.attach(db)
    finally:
        Observer.detach(db)
    assert db.obs is None and db.disk.observer is None


# ---------------------------------------------------------------------------
# reconciliation: spans vs the simulated disk's grand totals
# ---------------------------------------------------------------------------
def run_traced(force_vertical=True, n=500):
    db, values = fresh_db(n=n)
    keys = sorted(values["A"])[: n // 5]
    with observed(db) as obs:
        io_before = db.disk.stats.snapshot()
        result = bulk_delete(
            db, "R", "A", keys, force_vertical=force_vertical
        )
        io_delta = db.disk.stats.delta_since(io_before)
    return obs, result, io_delta


def test_root_span_matches_disk_grand_totals():
    obs, result, io_delta = run_traced()
    root = result.trace
    assert isinstance(root, Span)
    assert root.io.reads == io_delta.reads
    assert root.io.writes == io_delta.writes
    assert root.io.random_ios == io_delta.random_ios
    assert root.io.io_time_ms == pytest.approx(io_delta.io_time_ms)


def test_exclusive_costs_sum_to_root_inclusive():
    obs, result, _ = run_traced()
    root = result.trace
    spans = list(root.walk())
    assert len(spans) > 3  # sort, per-structure bd ops, flush...
    assert sum(s.self_ms for s in spans) == pytest.approx(root.elapsed_ms)
    assert sum(s.self_io.reads for s in spans) == root.io.reads
    assert sum(s.self_io.writes for s in spans) == root.io.writes
    assert sum(
        s.self_io.io_time_ms for s in spans
    ) == pytest.approx(root.io.io_time_ms)


def test_children_nest_within_parent_interval():
    obs, result, _ = run_traced()
    for span in iter_spans(obs):
        assert span.closed
        assert span.end_ms >= span.start_ms
        for child in span.children:
            assert child.start_ms >= span.start_ms
            assert child.end_ms <= span.end_ms


def test_metrics_agree_with_disk_counters():
    obs, result, io_delta = run_traced()
    m = obs.metrics
    assert m.value("disk.reads") == io_delta.reads
    assert m.value("disk.writes") == io_delta.writes
    assert m.value("disk.read.random") == io_delta.random_reads
    assert m.value("disk.write.sequential") == io_delta.sequential_writes
    assert m.value("disk.io_ms") == pytest.approx(io_delta.io_time_ms)


def test_horizontal_path_reconciles_too():
    db, values = fresh_db(n=200)
    keys = sorted(values["A"])[:10]
    with observed(db):
        result = traditional_delete(db, "R", "A", keys, presort=True)
    root = result.trace
    assert isinstance(root, Span)
    spans = list(root.walk())
    assert sum(s.self_io.reads for s in spans) == root.io.reads
    assert sum(s.self_io.writes for s in spans) == root.io.writes
    assert sum(s.self_ms for s in spans) == pytest.approx(root.elapsed_ms)


# ---------------------------------------------------------------------------
# observation is read-only / disabled is free
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("force_vertical", [True, False])
def test_traced_run_costs_exactly_the_untraced_cost(force_vertical):
    def run(observe):
        db, values = fresh_db(n=400)
        keys = sorted(values["A"])[:80]
        if observe:
            with observed(db):
                bulk_delete(db, "R", "A", keys,
                            force_vertical=force_vertical)
        else:
            bulk_delete(db, "R", "A", keys,
                        force_vertical=force_vertical)
        return db.clock.now_ms, db.disk.stats.snapshot()

    traced_ms, traced_io = run(observe=True)
    plain_ms, plain_io = run(observe=False)
    assert traced_ms == plain_ms  # byte-identical simulation
    assert vars(traced_io) == vars(plain_io)


def test_disabled_by_default_and_no_metrics_exist(db):
    populate(db, n=100)
    assert db.obs is None and db.disk.observer is None
    result = bulk_delete(
        db, "R", "A", [1, 2, 3], force_vertical=True
    )
    assert result.trace is None  # nothing was recorded anywhere


def test_detach_restores_the_disabled_state(db):
    populate(db, n=100)
    with observed(db) as obs:
        assert db.obs is obs and db.disk.observer is obs
    assert db.obs is None and db.disk.observer is None


def test_lsm_hooks_follow_the_disk_observer():
    """An LSM tree reads ``disk.observer`` like every other storage
    layer: probes that reach it without passing through ``Database``
    credit the *attached* observer, never a previously detached one."""
    db = Database(page_size=512, memory_bytes=64 * 1024)
    db.create_table(
        TableSchema.of("C", [Attribute.int_("K"), Attribute.int_("V")]),
        engine="lsm",
    )
    with observed(db) as stale:
        db.load_table("C", [(k, k) for k in range(20)])
    fk = ForeignKey("C", "K", "P", "K")
    with observed(db) as obs:
        found = find_referencing_keys(db, fk, list(range(15, 25)))
    assert found == [15, 16, 17, 18, 19]
    assert obs.metrics.value("lsm.lookups") == 10
    assert stale.metrics.value("lsm.lookups") == 0
    assert db.table("C").lsm.observer is None  # detached again


# ---------------------------------------------------------------------------
# export document + schema validation
# ---------------------------------------------------------------------------
def test_export_document_round_trips_the_validator():
    obs, result, _ = run_traced()
    entry = trace_entry("bulk-delete", result.trace,
                        obs.metrics.snapshot())
    doc = export_document([entry], workload={"n": 500})
    assert validate_trace(doc) == []
    totals = doc["traces"][0]["totals"]
    assert totals["reads"] == result.trace.io.reads
    assert totals["sim_time_ms"] == pytest.approx(
        result.trace.elapsed_ms
    )


def test_validator_catches_broken_reconciliation():
    obs, result, _ = run_traced()
    doc = export_document(
        [trace_entry("bulk-delete", result.trace)]
    )
    span = doc["traces"][0]["span"]
    span["self_ms"] = span["self_ms"] + 1.0  # no longer elapsed - children
    errors = validate_trace(doc)
    assert errors and any("self_ms" in e for e in errors)


def test_validator_catches_non_nested_child():
    obs, result, _ = run_traced()
    doc = export_document(
        [trace_entry("bulk-delete", result.trace)]
    )
    span = doc["traces"][0]["span"]
    assert span["children"], "expected an operator tree"
    span["children"][0]["end_ms"] = span["end_ms"] + 5.0
    errors = validate_trace(doc)
    assert errors


def test_export_document_refuses_invalid_entries():
    bad_span = Span(name="x")
    bad_span.start_ms = 10.0
    bad_span.end_ms = 5.0  # negative elapsed
    with pytest.raises(ValueError):
        export_document([trace_entry("broken", bad_span)])
