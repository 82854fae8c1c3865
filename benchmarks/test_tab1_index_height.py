"""Table 1 (Experiment 3): index height 3 vs 4.

The paper shrinks inner fan-out to grow the tree by one level.  Pass
criteria: the bulk delete's running time is (nearly) independent of the
height — it never traverses root-to-leaf per record — while the
``not sorted`` traditional baseline pays for the extra level.
"""

from benchmarks.conftest import emit_paper_report
from repro.bench.experiments import table_1
from repro.bench.paper_data import TAB1_MINUTES


def test_table_1(benchmark, records):
    series = benchmark.pedantic(
        table_1, kwargs={"record_count": records}, rounds=1, iterations=1
    )
    emit_paper_report(
        "table_1",
        series,
        TAB1_MINUTES,
        label_map={"bulk": "sorted/bulk"},
    )

    bulk = series.scaled_minutes("bulk")
    unsorted_t = series.scaled_minutes("not sorted/trad")
    sorted_t = series.scaled_minutes("sorted/trad")
    # Bulk delete: height-independent (paper: 24.87 -> 26.79, +8 %).
    assert bulk[1] < bulk[0] * 1.25
    # not sorted/trad: clearly worse on the taller tree
    # (paper: 102.05 -> 136.09, +33 %).
    assert unsorted_t[1] > unsorted_t[0] * 1.1
    # Ordering holds at both heights.
    for i in (0, 1):
        assert bulk[i] < sorted_t[i] < unsorted_t[i]
