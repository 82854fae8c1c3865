"""Figure 7 (Experiment 1): vary the deleted fraction.

One unclustered index, the paper's 5 MB memory (scaled).  Pass
criteria: both traditional variants grow ~linearly in the fraction,
``not sorted`` is the worst, and the vertical bulk delete stays nearly
flat and wins everywhere.
"""

from benchmarks.conftest import emit_paper_report
from repro.bench.experiments import figure_7
from repro.bench.paper_data import FIG7_MINUTES


def test_figure_7(benchmark, records):
    series = benchmark.pedantic(
        figure_7, kwargs={"record_count": records}, rounds=1, iterations=1
    )
    emit_paper_report("figure_7", series, FIG7_MINUTES)

    sorted_t = series.scaled_minutes("sorted/trad")
    unsorted_t = series.scaled_minutes("not sorted/trad")
    bulk = series.scaled_minutes("bulk")
    for i in range(len(series.x_values)):
        assert bulk[i] < sorted_t[i] < unsorted_t[i]
    # Traditional grows ~4x from 5 % to 20 %; bulk stays nearly flat.
    assert sorted_t[-1] > sorted_t[0] * 2.5
    assert unsorted_t[-1] > unsorted_t[0] * 2.5
    assert bulk[-1] < bulk[0] * 1.8
    # The gap at 20 % approaches the paper's order of magnitude.
    assert unsorted_t[-1] > 5 * bulk[-1]
