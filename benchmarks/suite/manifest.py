"""The metric and workload registry: ``BENCHMARK.json`` at the root.

The JSON file is the single declaration of every metric's name, unit,
direction and regression bound; this module only reads it and answers
the one question the JSON cannot hold a key for: which *clock* a metric
is on.  A unit in :data:`HOST_UNITS` is host time or host memory —
noisy, reported as a median, compared with a bound.  Every other unit
(``sim_ms``, ``count``, ``ratio``, ``pages/op`` ...) comes off the
simulated clock or a deterministic counter and is compared exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
MANIFEST_PATH = ROOT / "BENCHMARK.json"

HOST_UNITS = frozenset(
    {"s", "ms", "us", "ns", "MiB", "us/io", "share", "host_%"}
)

#: The suite's own end-to-end metrics that ``BENCHMARK.json`` has to
#: list under ``per_layer``: the driver's contract wants every
#: end-to-end metric non-zero on every workload, and these apply to one
#: workload each (or are zero when nothing failed).  ``compare`` still
#: gates on them: any increase is a regression.
WORKLOAD_SPECIFIC_END_TO_END = (
    "user_during_p50_ms",
    "user_during_p90_ms",
    "user_p99_ms",
    "recover_sim_ms",
    "failed_share",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may worsen; ``None``
    #: for per-layer metrics (reported, never gated by the driver).
    bound: Optional[float]

    @property
    def on_host_clock(self) -> bool:
        return self.unit in HOST_UNITS


@dataclass(frozen=True)
class Manifest:
    run_seconds: int
    workloads: Dict[str, str]
    end_to_end: Dict[str, Metric]
    per_layer: Dict[str, Metric]

    def metric(self, name: str) -> Metric:
        return self.end_to_end.get(name) or self.per_layer[name]

    def gated(self) -> List[Metric]:
        """Metrics ``compare`` fails on: the driver's end-to-end list
        plus the suite's workload-specific end-to-end metrics."""
        return list(self.end_to_end.values()) + [
            self.per_layer[name] for name in WORKLOAD_SPECIFIC_END_TO_END
        ]


def load_manifest(path: Path = MANIFEST_PATH) -> Manifest:
    doc = json.loads(path.read_text())
    return Manifest(
        run_seconds=int(doc["run_seconds"]),
        workloads={w["name"]: w["why"] for w in doc["workloads"]},
        end_to_end={
            m["name"]: Metric(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]
        },
        per_layer={
            m["name"]: Metric(m["name"], m["unit"], m["better"], None)
            for m in doc["per_layer"]
        },
    )
