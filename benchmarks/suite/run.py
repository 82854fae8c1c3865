"""The benchmark's command (see ``BENCHMARK.json``)::

    python3 benchmarks/suite/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

Runs from a bare checkout: it puts the repository's ``src`` (the engine
under test) and its root (this package) on ``sys.path`` itself, and
exits non-zero without a result when the engine is not there.

Unless the caller set ``PYTHONHASHSEED``, the interpreter is re-executed
with ``PYTHONHASHSEED=0``: per-process hash randomisation moved host
time by several per cent between otherwise identical runs, which is
noise the host-clock bounds should not have to absorb.  Simulated
results do not depend on it (the smoke test runs under two values).
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"no engine to measure: {ROOT / 'src' / 'repro'} is missing")
    if "PYTHONHASHSEED" not in os.environ:
        os.execve(
            sys.executable,
            [sys.executable] + sys.argv,
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.suite.runner import main

    sys.exit(main())
