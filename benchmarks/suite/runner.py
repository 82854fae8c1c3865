"""Run one workload in this process and report it.

This is what ``run.py`` (the command in ``BENCHMARK.json``) executes,
and what ``python -m benchmarks.suite`` spawns once per workload so
that peak RSS is read per workload.  Two modes, never mixed:

* ``--trace 0`` — nothing attached.  The workload body is cycled
  (set-up, measured statements, verification) until ``--seconds`` have
  passed and at least ``--repeats`` cycles ran; simulated numbers
  must be identical on every cycle (checked, counted as a failed
  operation otherwise).
* ``--trace 1`` — five passes (plain and ``db.observe()`` attached,
  twice alternating, then ``cProfile``) plus the layer probes; prints
  every per-layer metric and writes ``trace_<workload>.json``.

A statement's host time is its **fastest** cycle, not the median: the
work is identical on every cycle, so the variation between cycles is
interference, which only ever adds time.  Measured on the 2-vCPU
sandbox over ten runs a workload, the quartile spread of the median was
5-12 % of its value and that of the minimum 1-3 %; only the latter can
resolve a 10 % bound.  ``setup_s`` stays a median over cycles (bound
25 %); medians of the statements are kept in the detail record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.suite import DEFAULT_REPEATS, DEFAULT_SCALE, layers
from benchmarks.suite.cycle import Cycle
from benchmarks.suite.hostclock import SpanRecorder, peak_rss_mib
from benchmarks.suite.manifest import (
    WORKLOAD_SPECIFIC_END_TO_END,
    Manifest,
    load_manifest,
)
from benchmarks.suite.probes import PROBES
from benchmarks.suite.workloads import WORKLOADS, scaled_sizes

DEFAULT_OUT_DIR = Path(__file__).resolve().parent / "_out"


def relative_spread(samples: Sequence[float]) -> float:
    """Quartile distance over the median (0 for fewer than 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    middle = statistics.median(samples)
    return (q3 - q1) / middle if middle else 0.0


def host_samples(cycles: Sequence[Cycle]) -> Dict[str, List[float]]:
    """Per statement, its host seconds on every cycle."""
    return {
        stmt.name: [cycle.statements[i].host_s for cycle in cycles]
        for i, stmt in enumerate(cycles[0].statements)
    }


def fastest(cycles: Sequence[Cycle]) -> Dict[str, float]:
    """Per statement, the host seconds of its fastest cycle."""
    return {name: min(v) for name, v in host_samples(cycles).items()}


def _run_cycle(
    name: str, recorder: SpanRecorder, number: int, **options: Any
) -> Cycle:
    recorder.cycle = number
    cycle = Cycle(recorder, **options)
    with recorder.span(f"cycle {number}", "cycle"):
        WORKLOADS[name](cycle)
    cycle.close()
    gc.collect()
    return cycle


def _setup_seconds(recorder: SpanRecorder, number: int) -> float:
    """Set-up spans never nest, so their durations add up."""
    return sum(
        span.duration_s for span in recorder.spans
        if span.cycle == number and span.role == "setup"
    )


def _tally(cycles: Sequence[Cycle]) -> Dict[str, Any]:
    failures = [
        {"label": c.label, "failed": c.failed, "of": c.attempted,
         "detail": c.detail[:500]}
        for cycle in cycles for c in cycle.checks if c.failed
    ]
    return {
        "attempted": sum(cycle.attempted for cycle in cycles),
        "failed": sum(cycle.failed for cycle in cycles),
        "failures": failures,
    }


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics, nothing attached
# ----------------------------------------------------------------------
def run_end_to_end(
    name: str, seed: int, scale: float, seconds: float, repeats: int
) -> Dict[str, Any]:
    recorder = SpanRecorder()
    sizes = scaled_sizes(name, scale)
    cycles: List[Cycle] = []
    while len(cycles) < repeats or recorder.elapsed_s() < seconds:
        cycles.append(_run_cycle(
            name, recorder, len(cycles) + 1, sizes=sizes, seed=seed
        ))
    first = cycles[0]
    simulated = [s.simulated() for s in first.statements]
    for number, cycle in enumerate(cycles[1:], start=2):
        same = (
            [s.simulated() for s in cycle.statements] == simulated
            and cycle.notes == first.notes
        )
        first.check(
            f"cycle {number}: simulated results identical to cycle 1", same
        )

    samples = host_samples(cycles)
    host_of = {name_: min(v) for name_, v in samples.items()}
    per_cycle_host = sorted(
        sum(s.host_s for s in cycle.statements) for cycle in cycles
    )
    # How far the runner-up is from the fastest cycle: the estimator's
    # own repeat spread (what ``compare`` holds against the bound).
    runner_up_gap = (
        per_cycle_host[1] / per_cycle_host[0] - 1.0
        if len(cycles) > 1 else 0.0
    )
    setup_samples = [
        _setup_seconds(recorder, number)
        for number in range(1, len(cycles) + 1)
    ]
    metrics = layers.end_to_end_sim(first.statements)
    sim_ios = metrics["sim_pages_read"] + metrics["sim_pages_written"]
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["host_s"] = sum(host_of.values())
    metrics["host_peak_mib"] = peak_rss_mib()
    metrics["host_us_per_sim_io"] = metrics["host_s"] * 1e6 / max(1, sim_ios)
    tally = _tally(cycles)
    for key in WORKLOAD_SPECIFIC_END_TO_END:
        if key in first.notes:
            metrics[key] = first.notes[key]
    metrics["failed_share"] = tally["failed"] / max(1, tally["attempted"])
    return {
        "workload": name, "mode": "end_to_end", "seed": seed,
        "scale": scale, "sizes": sizes, "cycles": len(cycles),
        "metrics": metrics,
        "spread": {
            "host_s": runner_up_gap,
            "host_us_per_sim_io": runner_up_gap,
            "setup_s": relative_spread(setup_samples),
        },
        "statements": layers.statement_rows(first.statements, host_of),
        "host_median_s": sum(statistics.median(v) for v in samples.values()),
        "host_samples": samples,
        "notes": first.notes,
        **tally,
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def _observable_host(cycles: Sequence[Cycle]) -> float:
    """Host seconds (fastest pass per statement) of the statements an
    observer can attach to."""
    attachable = {s.name for s in cycles[0].statements if s.has_db}
    return sum(
        seconds for name, seconds in fastest(cycles).items()
        if name in attachable
    )


def run_traced(
    name: str, seed: int, scale: float, manifest: Manifest, out_dir: Path
) -> Dict[str, Any]:
    recorder = SpanRecorder()
    sizes = scaled_sizes(name, scale)
    options = {"sizes": sizes, "seed": seed}
    # Plain and observed passes alternate so warm-up drift hits both.
    plain = [_run_cycle(name, recorder, 1, probing=True, **options)]
    observed = [_run_cycle(name, recorder, 2, observe=True, **options)]
    plain.append(_run_cycle(name, recorder, 3, **options))
    observed.append(_run_cycle(name, recorder, 4, observe=True, **options))
    profile = cProfile.Profile()
    profiled = _run_cycle(name, recorder, 5, profile=profile, **options)
    folded = layers.fold_profile(profile)
    probes: Dict[str, float] = {}
    for probe in PROBES:
        with recorder.span(probe.__name__, "probe"):
            probes.update(probe())

    first = plain[0]
    metrics: Dict[str, float] = dict.fromkeys(manifest.per_layer, 0.0)
    produced: Dict[str, float] = {}
    produced.update(layers.counter_metrics(first.statements))
    produced.update(layers.derived_host_metrics(first.statements, fastest(plain)))
    produced.update(first.notes)
    produced.update(first.host_notes)
    produced.update(layers.observer_metrics(
        observed[0].statements,
        _observable_host(plain),
        _observable_host(observed),
    ))
    produced.update(layers.profile_metrics(folded))
    produced.update(probes)
    tally = _tally(plain + observed + [profiled])
    produced["failed_share"] = tally["failed"] / max(1, tally["attempted"])
    extra = {k: v for k, v in produced.items() if k not in metrics}
    metrics.update({k: v for k, v in produced.items() if k in metrics})

    sim = layers.end_to_end_sim(first.statements)
    trace_path = out_dir / f"trace_{name}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": name, "seed": seed, "scale": scale, "sizes": sizes,
        "passes": {"1": "plain", "2": "db.observe() attached",
                   "3": "plain", "4": "db.observe() attached",
                   "5": "cProfile"},
        "spans": [
            span.to_dict(name, recorder.origin_s) for span in recorder.spans
        ],
        "observer": {
            s.name: s.ops for s in observed[0].statements if s.has_db
        },
        "profile": folded,
        "probes": probes,
        "sim": sim,
    }, indent=1) + "\n")
    return {
        "workload": name, "mode": "traced", "seed": seed, "scale": scale,
        "sizes": sizes, "metrics": metrics, "extra": extra,
        "sim": sim, "trace_file": str(trace_path),
        **tally,
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def contract_line(
    record: Dict[str, Any], declared: Dict[str, Any]
) -> Dict[str, Any]:
    """The driver's result object: exactly the declared metrics."""
    return {
        "correct": record["failed"] == 0,
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": metric.unit}
            for name, metric in declared.items()
        },
    }


def print_report(record: Dict[str, Any], manifest: Manifest) -> None:
    print(
        f"# {record['workload']}  mode={record['mode']} "
        f"seed={record['seed']} scale={record['scale']} "
        f"sizes={record['sizes']}"
    )
    for name, value in record["metrics"].items():
        metric = manifest.metric(name)
        clock = "host" if metric.on_host_clock else "sim "
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:34s} {shown:>14s} {metric.unit:8s} [{clock}]")
    for failure in record["failures"]:
        print(
            f"FAILED {failure['label']}: {failure['failed']} of "
            f"{failure['of']}  {failure['detail']}"
        )
    print(
        f"# attempted={record['attempted']} failed={record['failed']}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(
        prog="benchmarks/suite/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", required=True, choices=sorted(manifest.workloads)
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=float(manifest.run_seconds),
        help="keep cycling until this much host time has passed",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="minimum number of cycles (--trace 0)",
    )
    parser.add_argument(
        "--detail", type=Path, default=None,
        help="also write the full record (samples, statements) here",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=DEFAULT_OUT_DIR,
        help="where --trace 1 writes trace_<workload>.json",
    )
    args = parser.parse_args(argv)

    if args.trace:
        record = run_traced(
            args.workload, args.seed, args.scale, manifest, args.out_dir
        )
        declared = manifest.per_layer
    else:
        record = run_end_to_end(
            args.workload, args.seed, args.scale, args.seconds,
            max(1, args.repeats),
        )
        declared = manifest.end_to_end
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(record, indent=1) + "\n")
    print_report(record, manifest)
    sys.stdout.flush()
    print(json.dumps(contract_line(record, declared)))
    return 0 if record["failed"] == 0 else 1
