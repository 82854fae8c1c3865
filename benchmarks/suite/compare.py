"""``python -m benchmarks.suite compare A.json B.json``.

One row per workload x gated metric (the ten end-to-end metrics of
``BENCHMARK.json`` plus the suite's five workload-specific ones).  The
two clocks are judged differently:

* a metric on the simulated clock (or a deterministic count) is
  compared **exactly**: any move in the worse direction fails;
* a host metric fails when B's median is worse than A's by more than
  the metric's bound; within the bound it is *unchanged* only if the
  spread between repeats is itself within the bound, else *unresolved*.

Either side may name one set of a multi-set file as ``FILE:N``;
without it, all sets of the file are pooled (median across sets).
Every ratio is printed with its base (A's value).  Per-layer metrics of
the traced runs, when both sides have them, are listed where they moved
but never affect the exit code.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.suite.manifest import Manifest, Metric, load_manifest

#: Bound applied to host metrics that ``BENCHMARK.json`` gives none
#: (per-layer rows of the traced run; informational only).
PER_LAYER_HOST_NOTE = 0.10


class Side:
    """One operand: the selected sets of one result file."""

    def __init__(self, spec: str) -> None:
        match = re.fullmatch(r"(.+?):(\d+)", spec)
        path = Path(match.group(1) if match else spec)
        doc = json.loads(path.read_text())
        self.label = spec
        self.seed = doc["seed"]
        self.scale = doc["scale"]
        self.sets: List[Dict[str, Any]] = doc["sets"]
        if match:
            self.sets = [self.sets[int(match.group(2))]]
        self.traced: Dict[str, Any] = doc.get("traced") or {}

    def workloads(self) -> List[str]:
        return list(self.sets[0]) if self.sets else []

    def value(self, workload: str, metric: str) -> Optional[float]:
        values = [
            s[workload]["metrics"][metric]
            for s in self.sets
            if workload in s and metric in s[workload]["metrics"]
        ]
        return statistics.median(values) if values else None

    def spread(self, workload: str, metric: str) -> float:
        """Largest relative spread seen for a host metric: between the
        repeats of any one set, and between the sets themselves."""
        within = [
            s[workload]["spread"].get(metric, 0.0)
            for s in self.sets if workload in s
        ]
        values = [
            s[workload]["metrics"][metric]
            for s in self.sets if workload in s
        ]
        between = 0.0
        if len(values) > 1 and statistics.median(values):
            between = (max(values) - min(values)) / statistics.median(values)
        return max(within + [between])


def _worse_by(metric: Metric, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    delta = (b - a) if metric.better == "lower" else (a - b)
    if a:
        return delta / abs(a)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def judge(
    metric: Metric, a: float, b: float, spread: float
) -> Tuple[str, bool]:
    """``(verdict, fails)`` for one row."""
    worse = _worse_by(metric, a, b)
    if not metric.on_host_clock:
        if a == b:
            return "same", False
        return ("WORSE", True) if worse > 0 else ("better", False)
    assert metric.bound is not None
    if worse > metric.bound:
        return "WORSE", True
    if spread > metric.bound:
        return "unresolved", False
    if worse < -metric.bound:
        return "better", False
    return "unchanged", False


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def compare(
    a: Side, b: Side, manifest: Manifest, out=print
) -> int:
    if (a.seed, a.scale) != (b.seed, b.scale):
        out(
            f"cannot compare: A ran seed={a.seed} scale={a.scale}, "
            f"B ran seed={b.seed} scale={b.scale}; simulated metrics "
            "are only comparable on identical inputs"
        )
        return 2
    failed_rows = 0
    out(f"A = {a.label} ({len(a.sets)} set(s))")
    out(f"B = {b.label} ({len(b.sets)} set(s))")
    out(
        f"{'workload':16s} {'metric':20s} {'A (base)':>12s} {'B':>12s} "
        f"{'B vs A':>9s}  {'spread':>7s}  verdict"
    )
    for workload in a.workloads():
        if workload not in b.workloads():
            out(f"{workload:16s} missing from B")
            failed_rows += 1
            continue
        for metric in manifest.gated():
            va, vb = a.value(workload, metric.name), b.value(
                workload, metric.name)
            if va is None or vb is None:
                continue
            spread = 0.0
            if metric.on_host_clock:
                spread = max(
                    a.spread(workload, metric.name),
                    b.spread(workload, metric.name),
                )
            verdict, fails = judge(metric, va, vb, spread)
            failed_rows += fails
            change = f"{(vb - va) / va:+.1%}" if va else "n/a"
            shown = f"{spread:.1%}" if metric.on_host_clock else "exact"
            out(
                f"{workload:16s} {metric.name:20s} {_fmt(va):>12s} "
                f"{_fmt(vb):>12s} {change:>9s}  {shown:>7s}  {verdict}"
            )
    moved = _per_layer_rows(a, b, manifest)
    if moved:
        out("per-layer metrics that moved (traced runs; informational):")
        for row in moved:
            out(row)
    out(
        f"{failed_rows} regression(s)" if failed_rows
        else "no regression: every simulated metric identical or better, "
        "every host metric within its bound"
    )
    return 1 if failed_rows else 0


def _per_layer_rows(a: Side, b: Side, manifest: Manifest) -> List[str]:
    rows: List[str] = []
    for workload, record in a.traced.items():
        other = b.traced.get(workload)
        if other is None:
            continue
        for name, va in record["metrics"].items():
            vb = other["metrics"].get(name)
            metric = manifest.per_layer.get(name)
            if vb is None or metric is None or va == vb:
                continue
            if metric.on_host_clock and va and (
                abs(vb - va) / abs(va) <= PER_LAYER_HOST_NOTE
            ):
                continue
            change = f"{(vb - va) / va:+.1%} of A" if va else "from 0"
            kind = "host" if metric.on_host_clock else "exact"
            rows.append(
                f"  {workload:16s} {name:30s} {_fmt(va):>12s} -> "
                f"{_fmt(vb):>12s} ({change}; {kind})"
            )
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.suite compare A.json[:SET] "
              "B.json[:SET]")
        return 2
    return compare(Side(argv[0]), Side(argv[1]), load_manifest())
