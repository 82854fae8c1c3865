"""Shared benchmark plumbing.

Every benchmark regenerates one table/figure of the paper: it runs the
experiment once under pytest-benchmark, prints a paper-vs-measured
table, writes the same table to ``benchmarks/_reports/``, and asserts
the *shape* claims (who wins, what grows, where the crossover sits) —
absolute numbers are simulated and scaled, shapes are the contract.

``REPRO_BENCH_RECORDS`` scales the workloads (default 8000 records,
1/125 of the paper's table; larger values sharpen the curves at the
cost of wall-clock time).
"""

import os
import pathlib
from typing import Dict, Optional, Sequence

import pytest

from repro.bench.harness import Series
from repro.bench.plots import render_series
from repro.bench.report import (
    operator_breakdown,
    paper_vs_measured,
    shape_checks,
)

RECORDS = int(os.environ.get("REPRO_BENCH_RECORDS", "8000"))

_REPORT_DIR = pathlib.Path(__file__).parent / "_reports"


def emit_report(name: str, text: str) -> None:
    """Print a report block and persist it for EXPERIMENTS.md."""
    banner = f"\n{'=' * 72}\n{text}\n{'=' * 72}"
    print(banner)
    _REPORT_DIR.mkdir(exist_ok=True)
    (_REPORT_DIR / f"{name}.txt").write_text(text + "\n")


def emit_paper_report(
    name: str,
    series: Series,
    paper_minutes: Dict[str, Sequence[float]],
    label_map: Optional[Dict[str, str]] = None,
) -> None:
    """A paper figure's report: paper vs measured, the chart, the shape
    checks and the per-operator breakdown of the last point."""
    report = paper_vs_measured(series, paper_minutes, label_map=label_map)
    report += "\n\n" + render_series(series)
    report += "\n" + "\n".join(shape_checks(series))
    report += "\n\n" + operator_breakdown(series)
    emit_report(name, report)


@pytest.fixture(scope="session")
def records() -> int:
    return RECORDS
