"""Figure 10 (Experiment 5): a clustered driving index.

When the table is clustered on the delete column, the sorted
traditional plan touches heap pages in physical order — "the best
possible case for the traditional approaches".  Pass criteria:
``sorted/trad`` on the clustered table beats even the bulk delete
(the paper's one crossover), while the unclustered ``sorted/trad`` and
the clustered ``not sorted/trad`` remain far worse.
"""

from benchmarks.conftest import emit_paper_report
from repro.bench.experiments import figure_10
from repro.bench.paper_data import FIG10_MINUTES


def test_figure_10(benchmark, records):
    series = benchmark.pedantic(
        figure_10, kwargs={"record_count": records}, rounds=1, iterations=1
    )
    emit_paper_report("figure_10", series, FIG10_MINUTES)

    clustered = series.scaled_minutes("sorted/trad/clust")
    unclustered = series.scaled_minutes("sorted/trad/unclust")
    unsorted_c = series.scaled_minutes("not sorted/trad/clust")
    bulk = series.scaled_minutes("bulk")
    for i in range(len(series.x_values)):
        # The crossover: clustered sorted/trad wins even against bulk.
        assert clustered[i] < bulk[i]
        # But bulk still beats both other traditional variants...
        assert bulk[i] < unclustered[i]
        assert bulk[i] < unsorted_c[i]
    # ...and not-sorted gains little from clustering (paper: "overall
    # very poor performance because of its high cost to probe the
    # index").
    assert unsorted_c[-1] > 3 * bulk[-1]
