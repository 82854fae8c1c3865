"""``tools/host_pairs.py`` against two stub benchmark checkouts."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "host_pairs.py"
MANIFEST = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)

STUB = """
import json, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
with open("calls.txt", "a") as log:
    log.write(" ".join(args) + "\\n")
metrics = {{name: {{"value": 1000.0 + seed, "unit": "u"}} for name in {names!r}}}
metrics["host_s"]["value"] = {host_s}
metrics["sim_ms"]["value"] = {sim_ms} + seed
print("warming up")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                  "metrics": metrics}}))
"""


def checkout(root: Path, host_s: float, sim_ms: float) -> Path:
    run = root / "benchmarks" / "suite" / "run.py"
    run.parent.mkdir(parents=True)
    names = [m["name"] for m in MANIFEST["end_to_end"]]
    run.write_text(textwrap.dedent(STUB.format(
        names=names, host_s=host_s, sim_ms=sim_ms,
    )))
    return root


def host_pairs(parent: Path, change: Path, *extra: str):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--workload", "load_build", *extra],
        capture_output=True, text=True,
    )


def test_pairs_alternate_and_report_medians_and_wins(tmp_path):
    parent = checkout(tmp_path / "parent", host_s=0.8, sim_ms=500.0)
    change = checkout(tmp_path / "change", host_s=0.3, sim_ms=500.0)
    done = host_pairs(parent, change, "--pairs", "3", "--seed", "4", "9")
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "pair 1/3 seed 4 (parent first)" in out
    assert "pair 2/3 seed 9 (change first)" in out
    assert "pair 3/3 seed 4 (parent first)" in out
    host = next(line for line in out.splitlines() if line.startswith("host_s "))
    assert host.split()[1:5] == ["0.8", "0.3", "-62.5%", "3/3"]
    assert "15%" in host
    assert "identical in every pair" in out
    calls = (parent / "calls.txt").read_text().splitlines()
    seconds = str(MANIFEST["run_seconds"])
    assert calls[0].split() == [
        "--workload", "load_build", "--seed", "4",
        "--seconds", seconds, "--trace", "0",
    ]
    assert [c.split()[3] for c in calls] == ["4", "9", "4"]


def test_a_simulated_difference_at_equal_seed_fails(tmp_path):
    parent = checkout(tmp_path / "parent", host_s=0.8, sim_ms=500.0)
    change = checkout(tmp_path / "change", host_s=0.3, sim_ms=501.0)
    done = host_pairs(parent, change, "--pairs", "2")
    assert done.returncode == 1
    assert "pair 1 (seed 1): sim_ms 501.0 -> 502.0" in done.stdout


def test_a_failing_run_exits_2(tmp_path):
    parent = checkout(tmp_path / "parent", host_s=0.8, sim_ms=500.0)
    change = tmp_path / "change"
    (change / "benchmarks" / "suite").mkdir(parents=True)
    (change / "benchmarks" / "suite" / "run.py").write_text(
        "import sys; sys.exit('no engine')\n"
    )
    done = host_pairs(parent, change, "--pairs", "1")
    assert done.returncode == 2
    assert "no engine" in done.stderr
