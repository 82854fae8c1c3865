#!/usr/bin/env python
"""Gate the benchmark's *simulated* rows exactly.

Host seconds drift with the machine, so CI cannot hold them to a bound;
simulated cost is deterministic, so CI can hold it to the digit.  This
runs every ``BENCHMARK.json`` workload once through the benchmark's own
command at smoke scale::

    python benchmarks/suite/run.py --workload W --seed 42 --scale 0.05 \
        --repeats 1 --seconds 0 --trace 0

takes the simulated metrics and the failure count from the last output
line, and compares them *exactly* with ``tools/bench_sim_baseline.json``.
Host rows (``setup_s``, ``host_s``, ...) are ignored.  About five
seconds for the seven workloads.

Usage::

    python tools/bench_sim_gate.py            # compare, exit 1 on any move
    python tools/bench_sim_gate.py --update   # rewrite the baseline

A change that moves a simulated figure on purpose re-runs ``--update``
and says why in ``CHANGES.md``; a host-only optimisation must leave the
baseline file untouched.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().with_name("bench_sim_baseline.json")

#: What the gate pins, per workload: deterministic at equal seed/scale.
GATED = (
    "sim_ms", "sim_random_ios", "sim_seq_ios", "sim_pages_read",
    "sim_pages_written", "space_pages",
)
RUN_OPTIONS = [
    "--seed", "42", "--scale", "0.05", "--repeats", "1",
    "--seconds", "0", "--trace", "0",
]

Row = Dict[str, float]


def measure(workload: str) -> Row:
    """One smoke-scale run of ``workload``: its gated figures."""
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "suite" / "run.py"),
         "--workload", workload] + RUN_OPTIONS,
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: benchmark exited {done.returncode}\n{done.stderr}"
        )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    row: Row = {name: record["metrics"][name]["value"] for name in GATED}
    row["failed"] = record["failed"]
    return row


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite tools/bench_sim_baseline.json from this tree",
    )
    args = parser.parse_args(argv)
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    measured = {w["name"]: measure(w["name"]) for w in manifest["workloads"]}

    if args.update:
        BASELINE.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {BASELINE.relative_to(REPO_ROOT)}")
        return 0

    baseline = json.loads(BASELINE.read_text())
    moved: List[str] = []
    for workload in sorted(set(baseline) | set(measured)):
        want, got = baseline.get(workload, {}), measured.get(workload, {})
        moved += [
            f"{workload}.{name}: baseline {want.get(name)!r}, "
            f"measured {got.get(name)!r}"
            for name in (*GATED, "failed")
            if want.get(name) != got.get(name)
        ]
    for line in moved:
        print(f"MOVED {line}")
    print(
        f"simulated rows: {len(measured)} workloads x {len(GATED) + 1} "
        f"figures, {len(moved)} moved"
    )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
