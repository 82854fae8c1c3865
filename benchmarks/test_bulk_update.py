"""Extension bench: the paper's §1 UPDATE application.

"Increasing the salary of above-average employees involves carrying out
a bulk delete (and bulk insert) on the Emp.salary index."  Vertical
(one heap sweep + bulk delete + bulk insert per affected index) vs the
traditional per-record index maintenance, over a sweep of updated
fractions.
"""

from benchmarks.conftest import emit_report
from repro.bench.report import format_table
from repro.core.bulk_update import bulk_update, traditional_update
from repro.workload.generator import WorkloadConfig, build_workload


def _run(records):
    fractions = [0.05, 0.15, 0.30]
    rows = {"bulk update": [], "traditional update": []}
    template = build_workload(
        WorkloadConfig(record_count=records, index_columns=("A", "B"))
    )
    for fraction in fractions:
        for label in rows:
            wl = template.fork()
            keys = wl.delete_keys(fraction)
            wl.reset_measurements()
            fn = bulk_update if label == "bulk update" else traditional_update
            result = fn(
                wl.db, "R", "B",
                compute=lambda row: row[1] + 1,
                where_column="A",
                where_keys=keys,
            )
            assert result.records_updated == len(keys)
            rows[label].append(
                wl.db.clock.now_seconds / 60.0 * wl.config.scale_factor
            )
    return fractions, rows


def test_bulk_update_extension(benchmark, records):
    fractions, rows = benchmark.pedantic(
        _run, args=(records,), rounds=1, iterations=1
    )
    emit_report(
        "extension_bulk_update",
        format_table(
            "Extension: UPDATE via bulk delete + bulk insert (index on "
            "the SET column)",
            "% updated",
            [int(f * 100) for f in fractions],
            rows,
        ),
    )
    bulk = rows["bulk update"]
    trad = rows["traditional update"]
    # Vertical wins everywhere and its advantage grows with the
    # fraction, like the DELETE experiments.
    for b, t in zip(bulk, trad):
        assert b < t
    assert trad[-1] / bulk[-1] > trad[0] / bulk[0] * 0.8
    assert trad[-1] > 3 * bulk[-1]
