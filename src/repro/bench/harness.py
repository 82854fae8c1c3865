"""Runs one delete approach on one workload and collects measurements."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.drop_create import drop_create_delete
from repro.core.executor import BulkDeleteOptions, bulk_delete
from repro.core.plans import BdMethod
from repro.core.traditional import traditional_delete
from repro.storage.disk import DiskStats
from repro.workload.generator import Workload, WorkloadConfig, build_workload

#: Approach labels follow the paper's figures.
APPROACHES = (
    "bulk",            # sort/merge vertical plan (the paper's evaluated one)
    "bulk-hash",       # hash-probe vertical plan
    "bulk-partitioned",  # range-partitioned hash vertical plan
    "sorted/trad",     # horizontal with a sorted delete list
    "not sorted/trad",  # horizontal, delete list in arrival order
    "drop&create",     # drop secondary indexes, delete, re-create
)


@dataclass
class RunResult:
    """One (approach, workload, fraction) measurement."""

    approach: str
    fraction: float
    records_deleted: int
    sim_seconds: float
    scaled_minutes: float
    io: DiskStats
    extra: Dict[str, float] = field(default_factory=dict)
    #: Root :class:`repro.obs.trace.Span` covering the run, captured
    #: when the harness was asked to ``observe``; ``None`` otherwise.
    trace: Optional[object] = None


def run_approach(
    approach: str,
    config: WorkloadConfig,
    fraction: float,
    workload: Optional[Workload] = None,
    options: Optional[BulkDeleteOptions] = None,
    dc_create_method: str = "insert",
    observe: bool = False,
) -> RunResult:
    """Build (or reuse) the workload and execute one approach.

    Every run gets a fresh database unless ``workload`` is supplied —
    deletes are destructive, so pass a :meth:`Workload.fork` of a
    template to run several approaches on one build.

    With ``observe=True`` an observer is attached for the duration and
    the run's root span lands in :attr:`RunResult.trace` — observation
    is read-only, so the simulated cost is identical either way.
    """
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}")
    wl = workload or build_workload(config)
    keys = wl.delete_keys(fraction)
    wl.reset_measurements()
    db = wl.db
    observer = db.observe() if observe else None
    run_span = (
        observer.span(approach, kind="run", target="R")
        if observer is not None
        else None
    )
    if run_span is not None:
        run_span.__enter__()
    extra: Dict[str, float] = {}
    if approach == "bulk":
        result = bulk_delete(
            db, "R", "A", keys, options=options,
            prefer_method=BdMethod.SORT_MERGE, force_vertical=True,
        )
        deleted = result.records_deleted
        _note_parallel(result, extra)
    elif approach == "bulk-hash":
        result = bulk_delete(
            db, "R", "A", keys, options=options,
            prefer_method=BdMethod.HASH, force_vertical=True,
        )
        deleted = result.records_deleted
    elif approach == "bulk-partitioned":
        result = bulk_delete(
            db, "R", "A", keys, options=options,
            prefer_method=BdMethod.PARTITIONED_HASH, force_vertical=True,
        )
        deleted = result.records_deleted
    elif approach == "sorted/trad":
        trad = traditional_delete(db, "R", "A", keys, presort=True)
        deleted = trad.records_deleted
    elif approach == "not sorted/trad":
        trad = traditional_delete(db, "R", "A", keys, presort=False)
        deleted = trad.records_deleted
    else:  # drop&create
        dc = drop_create_delete(
            db, "R", "A", keys, presort=True, create_method=dc_create_method
        )
        deleted = dc.records_deleted
        extra["delete_minutes"] = dc.delete_ms / 60000.0
        extra["recreate_minutes"] = dc.recreate_ms / 60000.0
    trace = None
    if run_span is not None:
        run_span.set(records_deleted=deleted)
        run_span.__exit__(None, None, None)
        trace = run_span.span
        db.unobserve()
    sim_seconds = db.clock.now_seconds
    return RunResult(
        approach=approach,
        fraction=fraction,
        records_deleted=deleted,
        sim_seconds=sim_seconds,
        scaled_minutes=sim_seconds / 60.0 * config.scale_factor,
        io=db.disk.stats.snapshot(),
        extra=extra,
        trace=trace,
    )


def _note_parallel(result, extra: Dict[str, float]) -> None:
    """Surface per-region lane metrics of a multi-lane bulk delete."""
    for region in getattr(result, "parallel_regions", []):
        extra[f"speedup[{region.name}]"] = region.speedup
        extra[f"makespan_ms[{region.name}]"] = region.makespan_ms
        extra[f"serial_ms[{region.name}]"] = region.serial_ms


@dataclass
class Series:
    """One experiment: x-axis values and per-approach measurements."""

    title: str
    x_label: str
    x_values: List[object]
    rows: Dict[str, List[RunResult]] = field(default_factory=dict)

    def scaled_minutes(self, approach: str) -> List[float]:
        return [r.scaled_minutes for r in self.rows[approach]]


def _no_options(x: object) -> Optional[BulkDeleteOptions]:
    return None


@dataclass(frozen=True)
class Row:
    """One report column of a sweep: an approach on its own database.

    ``make_config`` (and ``make_options``) map the sweep's x value to
    the database the run deletes from (and the executor knobs it runs
    with); rows that name equal configs share one template build.
    """

    approach: str
    make_config: Callable[[object], WorkloadConfig]
    make_options: Callable[[object], Optional[BulkDeleteOptions]] = (
        _no_options
    )
    dc_create_method: str = "insert"


def sweep(
    title: str,
    x_label: str,
    x_values: Sequence[object],
    rows: Dict[str, Row],
    make_fraction: Callable[[object], float],
) -> Series:
    """Run every row at every x, each run on a fork of its template.

    Each distinct :class:`WorkloadConfig` is built once per call and
    every run deletes from its own :meth:`Workload.fork` of it, so a
    run is billed exactly as on a fresh build.  Runs are observed:
    their root spans feed :func:`repro.bench.report.operator_breakdown`.
    """
    series = Series(
        title=title, x_label=x_label, x_values=list(x_values),
        rows={label: [] for label in rows},
    )
    templates: List[Workload] = []
    for x in x_values:
        fraction = make_fraction(x)
        for label, row in rows.items():
            config = row.make_config(x)
            template = next(
                (wl for wl in templates if wl.config == config), None
            )
            if template is None:
                template = build_workload(config)
                templates.append(template)
            series.rows[label].append(
                run_approach(
                    row.approach, config, fraction,
                    workload=template.fork(),
                    options=row.make_options(x),
                    dc_create_method=row.dc_create_method,
                    observe=True,
                )
            )
    return series
