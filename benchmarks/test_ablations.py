"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the effect of the individual
mechanisms the paper discusses qualitatively:

* bd method: sort/merge vs hash probe vs range-partitioned hash
  (the paper: "the tradeoffs ... are the same as for regular joins"),
* leaf compaction during the sweep (§2.3) on/off,
* on-the-fly base-node reorganization ([26]) vs layer-by-layer rebuild,
* free-at-empty vs merge-at-half ([9] vs [8]).
"""

import pytest

from benchmarks.conftest import emit_report
from repro.bench.harness import Series, run_approach
from repro.bench.report import format_table, operator_breakdown
from repro.btree.maintenance import merge_underfull_leaves, validate_tree
from repro.core.executor import BulkDeleteOptions, bulk_delete
from repro.workload.generator import WorkloadConfig, build_workload


@pytest.fixture(scope="module")
def template(records):
    """The two-index table every B-tree ablation run forks."""
    return build_workload(
        WorkloadConfig(record_count=records, index_columns=("A", "B"))
    )


def _run(template, fraction, approach="bulk", **knobs):
    return run_approach(
        approach, template.config, fraction, workload=template.fork(),
        **knobs,
    )


def test_ablation_bd_methods(benchmark, template):
    """Sort/merge vs hash vs partitioned hash at 15 % deletes."""

    def run():
        return {
            approach: _run(template, 0.15, approach, observe=True)
            for approach in ("bulk", "bulk-hash", "bulk-partitioned")
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    minutes = {k: [v.scaled_minutes] for k, v in rows.items()}
    breakdown_series = Series(
        title="", x_label="point", x_values=["15%"],
        rows={k: [v] for k, v in rows.items()},
    )
    emit_report(
        "ablation_methods",
        format_table("Ablation: bd method (15% deletes, 2 indexes)",
                     "point", ["15%"], minutes)
        + "\n\n" + operator_breakdown(breakdown_series),
    )
    values = [v.scaled_minutes for v in rows.values()]
    # All vertical methods sit within a small band of each other — the
    # paper's claim that method choice matters far less than
    # vertical-vs-horizontal.
    assert max(values) < min(values) * 2.5
    assert len({v.records_deleted for v in rows.values()}) == 1


def test_ablation_leaf_compaction(benchmark, template):
    """§2.3: compacting leaves during the sweep costs little and frees
    pages; skipping it leaves the tree sparse."""

    def run():
        plain = _run(template, 0.5)
        compact = _run(
            template, 0.5, options=BulkDeleteOptions(compact_leaves=True)
        )
        return plain, compact

    plain, compact = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_compaction",
        format_table(
            "Ablation: leaf compaction during the sweep (50% deletes)",
            "variant", ["minutes"],
            {"no compaction": [plain.scaled_minutes],
             "compaction": [compact.scaled_minutes]},
        ),
    )
    # Compaction costs well under the paper's "very little extra cost".
    assert compact.sim_seconds < plain.sim_seconds * 1.6


def test_ablation_base_node_reorg(benchmark, template):
    """On-the-fly inner maintenance vs layer-by-layer rebuild."""

    def run():
        rebuild = _run(template, 0.15)
        base = _run(
            template, 0.15, options=BulkDeleteOptions(base_node_reorg=True)
        )
        return rebuild, base

    rebuild, base = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_base_node",
        format_table(
            "Ablation: inner-level maintenance (15% deletes)",
            "variant", ["minutes"],
            {"layer rebuild": [rebuild.scaled_minutes],
             "base-node on-the-fly": [base.scaled_minutes]},
        ),
    )
    assert rebuild.records_deleted == base.records_deleted
    assert base.sim_seconds < rebuild.sim_seconds * 1.5


def test_ablation_free_at_empty_vs_merge(benchmark, template):
    """[9]'s free-at-empty vs a merge-at-half pass after the delete."""

    def run():
        wl = template.fork()
        free_run = run_approach("bulk", wl.config, 0.5, workload=wl)
        tree = wl.db.table("R").index("I_R_A").tree
        leaves_free_at_empty = tree.leaf_count()
        t0 = wl.db.clock.now_ms
        merged = merge_underfull_leaves(tree)
        merge_ms = wl.db.clock.now_ms - t0
        validate_tree(tree)
        return free_run, leaves_free_at_empty, tree.leaf_count(), merge_ms

    free_run, before, after, merge_ms = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit_report(
        "ablation_reclaim_policy",
        format_table(
            "Ablation: free-at-empty vs merge-at-half (50% deletes)",
            "metric", ["value"],
            {"leaves after free-at-empty": [float(before)],
             "leaves after merge pass": [float(after)],
             "merge pass cost (sim s)": [merge_ms / 1000.0]},
        ),
    )
    # Merging halves the sparse leaf level — the benefit [8] weighs
    # against its cost.
    assert after < before


def test_ablation_hash_index_drag(benchmark, records, template):
    """§5: "other kinds of indices are updated in the traditional way."

    A hash index on B cannot be swept; the vertical plan must fall back
    to per-record maintenance for it, dragging the total back toward
    horizontal cost.  Swapping it for a B-tree restores the flat cost.
    """

    def run():
        results = {}
        # B-tree secondary index: fully vertical.
        results["btree secondary"] = _run(template, 0.15).scaled_minutes
        # Hash secondary index: same data, traditional-way maintenance.
        wl = build_workload(
            WorkloadConfig(record_count=records, index_columns=("A",))
        )
        wl.db.create_hash_index("R", "B", name="H_B")
        keys = wl.delete_keys(0.15)
        wl.reset_measurements()
        bulk_delete(wl.db, "R", "A", keys, force_vertical=True)
        results["hash secondary"] = (
            wl.db.clock.now_seconds / 60.0 * wl.config.scale_factor
        )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_hash_index",
        format_table(
            "Ablation: secondary index kind under a 15% bulk delete",
            "variant", ["minutes"],
            {k: [v] for k, v in results.items()},
        ),
    )
    # At tiny scales the whole hash directory fits in the buffer pool
    # and the drag disappears — a scale artifact, not a property.
    if records >= 4000:
        assert results["hash secondary"] > results["btree secondary"] * 1.5
