"""Benchmark harness: experiments, paper data, reports."""

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    figure_1,
    figure_7,
    figure_8,
    figure_9,
    figure_10,
    table_1,
)
from repro.bench.harness import (
    APPROACHES,
    Row,
    RunResult,
    Series,
    run_approach,
    sweep,
)
from repro.bench.plots import render_chart, render_series
from repro.bench.report import format_table, paper_vs_measured, shape_checks

__all__ = [
    "ALL_EXPERIMENTS",
    "APPROACHES",
    "Row",
    "RunResult",
    "Series",
    "figure_1",
    "figure_7",
    "figure_8",
    "figure_9",
    "figure_10",
    "format_table",
    "paper_vs_measured",
    "render_chart",
    "render_series",
    "run_approach",
    "shape_checks",
    "sweep",
    "table_1",
]
