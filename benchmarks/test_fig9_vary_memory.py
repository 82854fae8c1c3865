"""Figure 9 (Experiment 4): vary the main-memory budget at 15 % deletes.

Pass criteria: the bulk delete performs the same with tiny memory as
with five times more (its sorts fit, its scans are sequential), the
``not sorted`` baseline benefits measurably from extra caching, and the
ordering of the approaches is unchanged at every budget.
"""

from benchmarks.conftest import emit_paper_report
from repro.bench.experiments import figure_9
from repro.bench.paper_data import FIG9_MINUTES


def test_figure_9(benchmark, records):
    series = benchmark.pedantic(
        figure_9, kwargs={"record_count": records}, rounds=1, iterations=1
    )
    emit_paper_report("figure_9", series, FIG9_MINUTES)

    bulk = series.scaled_minutes("bulk")
    unsorted_t = series.scaled_minutes("not sorted/trad")
    sorted_t = series.scaled_minutes("sorted/trad")
    # Bulk delete: flat across the memory range (paper: within 1 min).
    assert max(bulk) < min(bulk) * 1.3
    # not sorted/trad improves with memory (paper: 185 -> 100 min).
    assert unsorted_t[-1] <= unsorted_t[0]
    # Ordering unchanged at every budget.
    for i in range(len(series.x_values)):
        assert bulk[i] < sorted_t[i] <= unsorted_t[i]
