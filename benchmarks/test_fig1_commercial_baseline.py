"""Figure 1: the motivating experiment from the paper's introduction.

A 3-index table; the traditional record-at-a-time DELETE against the
``drop & create`` workaround, varying the deleted fraction (1-15 %).
Pass criterion: traditional grows sharply with the fraction, and
drop & create overtakes it once more than a few percent are deleted.
"""

from benchmarks.conftest import emit_paper_report
from repro.bench.experiments import figure_1
from repro.bench.paper_data import FIG1_MINUTES, FIG1_PERCENTS


def test_figure_1(benchmark, records):
    series = benchmark.pedantic(
        figure_1, kwargs={"record_count": records}, rounds=1, iterations=1
    )
    emit_paper_report(
        "figure_1",
        series,
        {"traditional": FIG1_MINUTES["traditional"],
         "drop&create": FIG1_MINUTES["drop&create"]},
        label_map={"not sorted/trad": "traditional"},
    )

    trad = series.scaled_minutes("not sorted/trad")
    dc = series.scaled_minutes("drop&create")
    # Traditional explodes with the deleted fraction...
    assert trad[-1] > trad[0] * 5
    # ...while drop & create grows far more slowly...
    assert dc[-1] / dc[0] < trad[-1] / trad[0]
    # ...and wins at the high end (the paper's >5 % observation).
    assert dc[-1] < trad[-1]
