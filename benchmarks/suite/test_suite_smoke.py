"""Smoke test of the benchmark suite itself (``pytest benchmarks/suite``).

Not collected by tier-1 (``testpaths = ["tests"]``): it runs all seven
workloads several times at ``--scale 0.05``, about a minute in total.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.suite import compare, runner, workloads  # noqa: E402
from benchmarks.suite.manifest import load_manifest  # noqa: E402

SCALE = 0.05
MANIFEST = load_manifest()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _env(hashseed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _suite(out: Path, seed: int, hashseed: str, traced: bool):
    command = [
        sys.executable, "-m", "benchmarks.suite", "--seed", str(seed),
        "--scale", str(SCALE), "--repeats", "2", "--out", str(out),
    ]
    done = subprocess.run(
        command + (["--traced"] if traced else []), cwd=ROOT,
        env=_env(hashseed), stdout=subprocess.PIPE, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    out = tmp_path_factory.mktemp("first") / "BENCH.json"
    return out, _suite(out, seed=42, hashseed="1", traced=True)


@pytest.fixture(scope="module")
def second(tmp_path_factory):
    out = tmp_path_factory.mktemp("second") / "BENCH.json"
    return out, _suite(out, seed=42, hashseed="2", traced=True)


def _deterministic(record: dict) -> dict:
    return {
        name: value for name, value in record["metrics"].items()
        if not MANIFEST.metric(name).on_host_clock
    }


def test_two_runs_repeat_every_simulated_metric_and_call_count(
    first, second
):
    """Same seed, different PYTHONHASHSEED: every metric off the host
    clock (``sim_*``, counts, ``*.calls``, ratios) is bit-identical."""
    (_, a), (_, b) = first, second
    for workload in MANIFEST.workloads:
        run_a, run_b = a["sets"][0][workload], b["sets"][0][workload]
        assert _deterministic(run_a) == _deterministic(run_b), workload
        assert run_a["statements"] and run_a["failed"] == 0
        for stmt_a, stmt_b in zip(run_a["statements"], run_b["statements"]):
            assert {**stmt_a, "host_s": 0} == {**stmt_b, "host_s": 0}
        traced_a, traced_b = a["traced"][workload], b["traced"][workload]
        assert _deterministic(traced_a) == _deterministic(traced_b), workload
        assert traced_a["metrics"]["disk.calls"] > 0


def test_a_second_seed_runs_clean(tmp_path):
    doc = _suite(tmp_path / "BENCH.json", seed=43, hashseed="0", traced=False)
    for workload in MANIFEST.workloads:
        record = doc["sets"][0][workload]
        assert record["failed"] == 0 and record["attempted"] > 0
        assert record["metrics"]["failed_share"] == 0


def _contract_line(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--repeats", "1",
         "--scale", str(SCALE), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line_prints_exactly_the_declared_metrics(trace, tmp_path):
    declared = MANIFEST.per_layer if trace else MANIFEST.end_to_end
    line = _contract_line("retention_audit", trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert list(line["metrics"]) == list(declared)
    for name, entry in line["metrics"].items():
        assert NAME.fullmatch(name)
        assert entry["unit"] == declared[name].unit
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_every_emitted_name_is_declared(first):
    _, doc = first
    known = set(MANIFEST.end_to_end) | set(MANIFEST.per_layer)
    for workload in MANIFEST.workloads:
        emitted = set(doc["sets"][0][workload]["metrics"])
        emitted |= set(doc["traced"][workload]["metrics"])
        assert emitted <= known, emitted - known
        assert all(NAME.fullmatch(name) for name in emitted)
        assert set(doc["traced"][workload]["metrics"]) == set(
            MANIFEST.per_layer)


def test_vertical_sort_merge_equals_run_approach(first):
    """The suite's sort/merge statement is Figure 8's 3-index point."""
    from repro.bench.harness import run_approach
    from repro.workload.generator import WorkloadConfig

    _, doc = first
    record = doc["sets"][0]["vertical_3idx"]
    config = WorkloadConfig(
        record_count=record["sizes"]["rows"],
        index_columns=("A", "B", "C"), seed=doc["seed"],
    )
    reference = run_approach("bulk", config, workloads.DELETE_FRACTION)
    sort_merge = record["statements"][0]
    assert sort_merge["name"] == "sort_merge"
    assert sort_merge["sim_ms"] == reference.sim_seconds * 1000
    assert sort_merge["disk"]["reads"] == reference.io.reads


def test_traced_run_writes_parent_linked_spans_and_reconciles(first):
    out, doc = first
    for workload in MANIFEST.workloads:
        trace = json.loads(
            (out.parent / f"trace_{workload}.json").read_text())
        spans = {span["id"]: span for span in trace["spans"]}
        roots = [s for s in spans.values() if s["parent"] is None]
        assert roots and all(s["role"] in ("cycle", "probe") for s in roots)
        for span in spans.values():
            assert span["workload"] == workload
            assert span["end_s"] >= span["start_s"]
            assert span["self_s"] <= span["end_s"] - span["start_s"] + 1e-9
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start_s"] <= span["start_s"]
                assert span["end_s"] <= parent["end_s"]
        assert {s["role"] for s in spans.values()} >= {
            "cycle", "setup", "measure", "verify", "probe"}
    vertical = doc["traced"]["vertical_3idx"]
    metrics = vertical["metrics"]
    assert "obs.attached_overhead_pct" in metrics
    assert metrics["obs.spans"] > 0
    ops = sum(
        metrics[f"op.{kind}_sim_ms"]
        for kind in ("bd", "sort", "scan", "flush", "other")
    )
    untraced = doc["sets"][0]["vertical_3idx"]["metrics"]["sim_ms"]
    assert math.isclose(ops, untraced, rel_tol=1e-9)


def test_wrong_expectation_is_a_failed_operation(monkeypatch, capsys):
    """An off-by-one deleted-row count must surface as ``failed`` > 0,
    with the metrics still printed and a non-zero exit."""
    real = workloads.bulk_delete

    def off_by_one(*args, **kwargs):
        result = real(*args, **kwargs)
        result.records_deleted += 1
        return result

    monkeypatch.setattr(workloads, "bulk_delete", off_by_one)
    code = runner.main([
        "--workload", "vertical_3idx", "--scale", str(SCALE),
        "--seconds", "0", "--repeats", "1", "--trace", "0",
    ])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] >= 3
    assert line["metrics"]["sim_ms"]["value"] > 0


def test_compare_gates_each_clock_its_own_way(first, tmp_path, capsys):
    out, doc = first
    assert compare.main([str(out), str(out)]) == 0

    def doctored(name, edit):
        copy = json.loads(json.dumps(doc))
        edit(copy["sets"][0]["horizontal_3idx"])
        path = tmp_path / name
        path.write_text(json.dumps(copy))
        return str(path)

    def more_sim_io(record):
        record["metrics"]["sim_random_ios"] += 1

    def slower_host(record):
        record["metrics"]["host_s"] *= 1.5

    def noisy_host(record):
        record["spread"]["host_s"] = 0.5

    def one_failure(record):
        record["metrics"]["failed_share"] = 0.01

    assert compare.main([str(out), doctored("sim.json", more_sim_io)]) == 1
    assert compare.main([str(out), doctored("host.json", slower_host)]) == 1
    assert compare.main([str(out), doctored("fail.json", one_failure)]) == 1
    capsys.readouterr()
    assert compare.main([str(out), doctored("noisy.json", noisy_host)]) == 0
    rows = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("horizontal_3idx") and " host_s " in line
    ]
    assert rows and rows[0].endswith("unresolved")
