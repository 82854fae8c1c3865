"""``python -m benchmarks.suite`` — run the suite, or compare two runs.

    PYTHONPATH=src python -m benchmarks.suite [--seed 42] [--scale 0.25]
        [--repeats 3] [--seconds 0] [--sets 1] [--workload NAME ...]
        [--traced] [--out FILE]
    PYTHONPATH=src python -m benchmarks.suite compare A.json B.json

Workloads run one after another, each in its own child process (one
thread, nothing else running), so peak RSS is per workload.  ``--sets``
repeats the whole sequence; ``--traced`` adds one traced run per
workload and writes ``trace_<workload>.json`` next to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.suite import DEFAULT_REPEATS, DEFAULT_SCALE, compare
from benchmarks.suite.manifest import load_manifest

HERE = Path(__file__).resolve().parent
SCHEMA = "benchmarks.suite/1"


def _run_child(
    workload: str, args: argparse.Namespace, trace: int, out_dir: Path
) -> Optional[Dict[str, Any]]:
    """One workload in a fresh interpreter; returns its full record."""
    detail = out_dir / f".detail_{workload}_{trace}.json"
    detail.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--scale", str(args.scale),
        "--seconds", str(args.seconds),
        "--repeats", str(args.repeats),
        "--trace", str(trace),
        "--detail", str(detail),
        "--out-dir", str(out_dir),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=False
    )
    # Relay the child's metric table; its last line is the driver's
    # JSON object, which the record already holds.
    print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
    if not detail.is_file():
        print(f"{workload}: child exited {done.returncode} without a result")
        return None
    record = json.loads(detail.read_text())
    detail.unlink()
    return record


def run(argv: Sequence[str]) -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep cycling each workload at least this long",
    )
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument(
        "--workload", action="append", choices=sorted(manifest.workloads),
        help="run only this workload (repeatable)",
    )
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--out", type=Path, default=HERE / "_out" / "BENCH.json"
    )
    args = parser.parse_args(argv)
    selected: List[str] = args.workload or list(manifest.workloads)
    out_dir = args.out.resolve().parent
    out_dir.mkdir(parents=True, exist_ok=True)

    clean = True

    def run_all(trace: int) -> Dict[str, Any]:
        nonlocal clean
        records: Dict[str, Any] = {}
        for workload in selected:
            record = _run_child(workload, args, trace, out_dir)
            clean = clean and record is not None and not record["failed"]
            if record is not None:
                records[workload] = record
        return records

    sets = [run_all(0) for _ in range(args.sets)]
    traced = run_all(1) if args.traced else {}
    for record in traced.values():
        record["trace_file"] = Path(record["trace_file"]).name
    args.out.write_text(json.dumps({
        "schema": SCHEMA,
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "sets": sets,
        "traced": traced,
    }, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if clean else 1


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
