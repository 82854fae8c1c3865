"""Figure 8 (Experiment 2): vary the number of indexes at 15 % deletes.

Pass criteria: the traditional variants grow with every additional
index (each deleted record pays one more root-to-leaf traversal), bulk
delete grows only marginally (one more sequential leaf sweep), and the
prototype-style ``drop & create`` (entry-at-a-time index rebuild) does
not beat the traditional plans, as in the paper's Figure 8.
"""

from benchmarks.conftest import emit_paper_report
from repro.bench.experiments import figure_8
from repro.bench.paper_data import FIG8_MINUTES


def test_figure_8(benchmark, records):
    series = benchmark.pedantic(
        figure_8, kwargs={"record_count": records}, rounds=1, iterations=1
    )
    emit_paper_report("figure_8", series, FIG8_MINUTES)

    sorted_t = series.scaled_minutes("sorted/trad")
    unsorted_t = series.scaled_minutes("not sorted/trad")
    bulk = series.scaled_minutes("bulk")
    dc = series.scaled_minutes("drop&create")
    # Monotone growth with the number of indexes for the baselines.
    assert sorted_t[0] < sorted_t[1] < sorted_t[2]
    assert unsorted_t[0] < unsorted_t[1] < unsorted_t[2]
    # Bulk barely moves: one extra sweep per index.
    assert bulk[2] < bulk[0] * 1.6
    # Bulk wins by a wide margin at 3 indexes.
    assert sorted_t[2] > 5 * bulk[2]
    # Prototype-style drop & create is not the answer (paper Fig. 8).
    assert dc[2] > bulk[2] * 3
