"""Tests for the workload generator and the benchmark harness."""

import pytest

from repro.bench import harness
from repro.bench.harness import APPROACHES, Row, Series, run_approach, sweep
from repro.bench.report import (
    format_table,
    operator_breakdown,
    paper_vs_measured,
    shape_checks,
)
from repro.core.executor import BulkDeleteOptions
from repro.workload.generator import (
    INT_COLUMNS,
    Workload,
    WorkloadConfig,
    build_workload,
    generate_rows,
    make_schema,
    pick_inner_fanout,
)

SMALL = dict(record_count=1500)


def test_schema_matches_paper_shape():
    schema = make_schema()
    assert schema.column_names[:10] == list(INT_COLUMNS)
    assert schema.column_names[-1] == "K"
    from repro.storage.serializer import RecordSerializer

    assert RecordSerializer(schema).record_size == 512


def test_generate_rows_duplicate_free():
    rows, columns = generate_rows(500, seed=1)
    assert len(rows) == 500
    for name in INT_COLUMNS:
        assert len(set(columns[name])) == 500


def test_generate_rows_deterministic():
    a = generate_rows(100, seed=9)[0]
    b = generate_rows(100, seed=9)[0]
    assert a == b
    c = generate_rows(100, seed=10)[0]
    assert a != c


def test_memory_scaling_ratio():
    config = WorkloadConfig(record_count=20_000, memory_paper_mb=5.0)
    # 5 MB of a 512 MB table ~ 1%; our table is 10.24 MB -> ~100 KiB.
    assert 90_000 < config.memory_bytes < 120_000
    assert config.scale_factor == pytest.approx(50.0)


def test_memory_floor_applies():
    config = WorkloadConfig(record_count=500, memory_paper_mb=2.0)
    assert config.memory_bytes >= 16 * config.page_size


def test_pick_inner_fanout():
    # 88 leaves, natural capacity 254: natural height is 2.
    assert pick_inner_fanout(88, 2, 254) is None
    fanout3 = pick_inner_fanout(88, 3, 254)
    assert fanout3 is not None and 4 <= fanout3 < 254
    with pytest.raises(ValueError):
        pick_inner_fanout(2, 9, 254)


def test_build_workload_end_to_end():
    wl = build_workload(WorkloadConfig(**SMALL))
    assert wl.db.table("R").record_count == 1500
    index = wl.db.table("R").index("I_R_A")
    assert index.tree.entry_count == 1500
    # Measurements were reset after setup.
    assert wl.db.clock.now_ms == 0.0  # lint: allow(float-cost-eq)
    assert wl.db.disk.stats.reads == 0


def test_build_workload_forced_height():
    wl = build_workload(WorkloadConfig(index_height=3, **SMALL))
    assert wl.db.table("R").index("I_R_A").tree.height == 3


def test_build_workload_clustered():
    wl = build_workload(WorkloadConfig(clustered_on="A", **SMALL))
    rows = [v[0] for _, v in wl.db.scan("R")]
    assert rows == sorted(rows)
    assert wl.db.table("R").index("I_R_A").clustered


def test_delete_keys_sampling():
    wl = build_workload(WorkloadConfig(**SMALL))
    keys = wl.delete_keys(0.10)
    assert len(keys) == 150
    assert set(keys) <= set(wl.a_values)
    assert keys != sorted(keys)  # arrival order is random, like table D
    with pytest.raises(ValueError):
        wl.delete_keys(0.0)


def test_run_approach_returns_measurements():
    config = WorkloadConfig(**SMALL)
    result = run_approach("bulk", config, 0.10)
    assert result.records_deleted == 150
    assert result.sim_seconds > 0
    assert result.scaled_minutes > 0
    assert result.io.total_ios > 0


def test_run_approach_rejects_unknown():
    with pytest.raises(ValueError):
        run_approach("magic", WorkloadConfig(**SMALL), 0.1)


def test_bulk_beats_traditional_at_15_percent():
    """The headline result, as a unit test."""
    config = WorkloadConfig(**SMALL)
    bulk = run_approach("bulk", config, 0.15)
    trad = run_approach("not sorted/trad", config, 0.15)
    assert bulk.records_deleted == trad.records_deleted
    assert trad.sim_seconds > 3 * bulk.sim_seconds


def test_bulk_flat_in_delete_fraction():
    config = WorkloadConfig(**SMALL)
    small = run_approach("bulk", config, 0.05)
    large = run_approach("bulk", config, 0.20)
    assert large.sim_seconds < small.sim_seconds * 2


def test_traditional_grows_with_delete_fraction():
    config = WorkloadConfig(**SMALL)
    small = run_approach("sorted/trad", config, 0.05)
    large = run_approach("sorted/trad", config, 0.20)
    assert large.sim_seconds > small.sim_seconds * 2


def test_clustered_sorted_trad_beats_bulk():
    """Figure 10's crossover: the one case the traditional plan wins."""
    config = WorkloadConfig(clustered_on="A", **SMALL)
    trad = run_approach("sorted/trad", config, 0.15)
    bulk = run_approach("bulk", config, 0.15)
    assert trad.sim_seconds < bulk.sim_seconds


def test_all_bulk_variants_agree_on_deletions():
    config = WorkloadConfig(**SMALL)
    results = [
        run_approach(ap, config, 0.10)
        for ap in ("bulk", "bulk-hash", "bulk-partitioned")
    ]
    assert len({r.records_deleted for r in results}) == 1


def test_sweep_produces_series(monkeypatch):
    """Each distinct config is built once; every run is on a fork."""
    builds = []

    def counting_build(config):
        builds.append(config)
        return build_workload(config)

    monkeypatch.setattr(harness, "build_workload", counting_build)
    index_sets = {1: ("A",), 2: ("A", "B")}
    config = lambda n: WorkloadConfig(  # noqa: E731
        record_count=800, index_columns=index_sets[n]
    )
    series = sweep(
        "mini", "indexes", [1, 2],
        rows={
            "bulk": Row("bulk", config),
            "trad": Row("not sorted/trad", config),
        },
        make_fraction=lambda n: 0.10,
    )
    assert builds == [config(1), config(2)]
    monkeypatch.undo()
    assert list(series.rows) == ["bulk", "trad"]
    for label, approach in (("bulk", "bulk"), ("trad", "not sorted/trad")):
        assert series.scaled_minutes(label) == [
            run_approach(approach, config(n), 0.10).scaled_minutes
            for n in (1, 2)
        ]


#: Every approach, plus the two per-row knobs a figure varies.
FORK_CASES = [(approach, {}) for approach in APPROACHES] + [
    ("drop&create", {"dc_create_method": "bulk"}),
    ("bulk", {"options": BulkDeleteOptions(lanes=2)}),
]


@pytest.mark.parametrize(
    "approach, knobs", FORK_CASES,
    ids=[f"{a}{'+' if k else ''}{''.join(k)}" for a, k in FORK_CASES],
)
def test_a_run_on_a_fork_equals_a_run_on_a_fresh_build(approach, knobs):
    config = WorkloadConfig(record_count=600, index_columns=("A", "B", "C"))
    template = build_workload(config)
    db = template.db
    clock, disk_stats, pool_stats = (
        db.clock.now_ms, dict(vars(db.disk.stats)), dict(vars(db.pool.stats))
    )
    rows = list(template.fork().db.scan("R"))

    fresh = run_approach(approach, config, 0.15, observe=True, **knobs)
    forked = run_approach(
        approach, config, 0.15, workload=template.fork(), observe=True,
        **knobs,
    )

    assert forked.records_deleted == fresh.records_deleted > 0
    # A fork is billed exactly as a fresh build: equality is the claim.
    assert forked.sim_seconds == fresh.sim_seconds  # lint: allow(float-cost-eq)
    assert vars(forked.io) == vars(fresh.io)
    assert forked.extra == fresh.extra
    breakdown = lambda run: operator_breakdown(  # noqa: E731
        Series("", "pct", [15], rows={approach: [run]})
    )
    assert breakdown(forked) == breakdown(fresh)
    # The template never saw the delete.
    assert db.clock.now_ms == clock  # lint: allow(float-cost-eq)
    assert vars(db.disk.stats) == disk_stats
    assert vars(db.pool.stats) == pool_stats
    assert list(db.scan("R")) == rows


def test_format_table_renders():
    text = format_table(
        "T", "x", [1, 2],
        {"a": [1.0, 2.0], "b": [float("nan"), 3.0]},
    )
    assert "T" in text and "1.00" in text and "-" in text


def test_paper_vs_measured_interleaves():
    series = sweep(
        "mini", "pct", [5],
        rows={"bulk": Row("bulk", lambda p: WorkloadConfig(record_count=1000))},
        make_fraction=lambda p: p / 100.0,
    )
    text = paper_vs_measured(series, {"bulk": [24.9]})
    assert "bulk (paper)" in text and "bulk (ours)" in text
    assert shape_checks(series)
