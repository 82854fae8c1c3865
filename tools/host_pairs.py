#!/usr/bin/env python
"""Alternated parent/change pairs of the benchmark's own command.

Host seconds on a shared machine drift between runs, so a host-time
claim is read from pairs: each pair runs the ``BENCHMARK.json`` command
once in each checkout at the same seed, alternating which side goes
first::

    python tools/host_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        [--pairs N] [--seed S ...]

Every run is ``<command> --workload W --seed S --seconds <run_seconds>
--trace 0`` in that checkout, ``S`` cycling through the given seeds.
Per end-to-end metric it prints both medians, how many pairs the change
won (by the metric's ``better`` direction) and each side's relative
spread (quartile distance over the median) next to the metric's bound;
a host metric whose change won at least 9 pairs in 10 by more than the
parent's quartile distance in the median is marked ``gain resolved``.
Simulated metrics (``sim_*``, ``space_pages``) must be identical within
every pair; any difference exits 1.  A run that fails exits 2.
Nothing under either checkout is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

Record = Dict[str, float]


def is_simulated(name: str) -> bool:
    return name.startswith("sim_") or name == "space_pages"


def relative_spread(samples: Sequence[float]) -> float:
    """Quartile distance over the median (0 for fewer than 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    middle = statistics.median(samples)
    return (q3 - q1) / middle if middle else 0.0


def fail(message: str) -> None:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def run_once(
    checkout: Path, command: List[str], workload: str, seed: int,
    seconds: int,
) -> Record:
    """One run of the benchmark command in ``checkout``: its metrics."""
    argv = [sys.executable if command[0].startswith("python") else command[0]]
    argv += command[1:] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"{checkout}: exited {done.returncode}\n{done.stderr[-2000:]}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if record.get("failed"):
        fail(f"{checkout}: {record['failed']} failed operation(s)")
    return {name: m["value"] for name, m in record["metrics"].items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    metrics = manifest["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: Dict[str, List[Record]] = {"parent": [], "change": []}
    moved: List[str] = []
    for i in range(args.pairs):
        seed = args.seed[i % len(args.seed)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {
            side: run_once(
                sides[side], manifest["command"], args.workload, seed,
                manifest["run_seconds"],
            )
            for side in order
        }
        for side in order:
            runs[side].append(pair[side])
        moved += [
            f"pair {i + 1} (seed {seed}): {m['name']} "
            f"{pair['parent'][m['name']]} -> {pair['change'][m['name']]}"
            for m in metrics
            if is_simulated(m["name"])
            and pair["parent"][m["name"]] != pair["change"][m["name"]]
        ]
        print(
            f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
            f"host_s {pair['parent'].get('host_s', 0.0):.3f} -> "
            f"{pair['change'].get('host_s', 0.0):.3f}",
            flush=True,
        )

    print(
        f"\n{args.workload}: {args.pairs} pair(s), seeds "
        f"{' '.join(map(str, args.seed))}"
    )
    print(
        f"{'metric':<20} {'parent':>12} {'change':>12} {'delta':>8} "
        f"{'won':>7} {'spread p / c':>15} {'bound':>6}"
    )
    for m in metrics:
        name = m["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        lower = m["better"] == "lower"
        won = sum(
            (c < p) if lower else (c > p) for p, c in zip(parent, change)
        )
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        delta = (mid_c / mid_p - 1.0) * 100.0 if mid_p else 0.0
        spread_p, spread_c = relative_spread(parent), relative_spread(change)
        notes = ""
        if not is_simulated(name):
            if max(spread_p, spread_c) > m["bound"]:
                notes += "  spread > bound"
            if won >= 0.9 * len(parent) and (
                abs(mid_c - mid_p) > spread_p * mid_p
            ):
                notes += "  gain resolved"
        print(
            f"{name:<20} {mid_p:>12.4g} {mid_c:>12.4g} {delta:>+7.1f}% "
            f"{won:>3}/{len(parent):<3} {spread_p:>6.1%} / {spread_c:>6.1%} "
            f"{m['bound']:>6.0%}{notes}"
        )
    if moved:
        print("\nsimulated metrics differ at equal seed:")
        for line in moved:
            print(f"  {line}")
        return 1
    print("\nsimulated metrics: identical in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
