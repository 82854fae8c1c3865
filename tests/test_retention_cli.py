"""CLI tests: `repro retention` and the machine-readable faultsweep.

A PR satellite: ``repro faultsweep --format json`` follows the same
conventions as ``repro lint --format json`` (one JSON document on
stdout, an ``ok`` key, exit status mirrors it) so CI can assert on
exact point counts instead of scraping summary text.
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden" / "sweeps"


def run_json(capsys, argv):
    code = cli_main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_faultsweep_json_reports_point_counts(capsys):
    code, data = run_json(
        capsys, ["faultsweep", "--max-points", "3", "--format", "json"]
    )
    assert code == 0
    assert data["sweep"] == "crash"
    assert data["ok"] is True
    assert data["failures"] == 0
    assert len(data["points"]) == 3
    # Double-crash runs add outcomes beyond the base points.
    assert len(data["outcomes"]) >= 3
    assert data["durable_events"] > 3
    assert all(not o["problems"] for o in data["outcomes"])


def test_faultsweep_retention_json(capsys):
    code, data = run_json(
        capsys,
        ["faultsweep", "--retention", "--max-points", "3",
         "--format", "json"],
    )
    assert code == 0
    assert data["sweep"] == "retention"
    assert data["ok"] is True
    crash, media = data["crash"], data["media"]
    assert crash["sweep"] == "retention-crash"
    assert crash["failures"] == 0 and len(crash["points"]) == 3
    assert media["sweep"] == "retention-media"
    assert media["failures"] == 0 and len(media["pages"]) == 3
    assert data["mutations"] == {"ok": True, "checks": 4, "failures": []}


def test_faultsweep_text_summary_unchanged(capsys):
    assert cli_main(["faultsweep", "--max-points", "2"]) == 0
    out = capsys.readouterr().out
    assert "durable events:" in out
    assert "failures: 0" in out


def test_retention_demo_prints_dag_and_audit(capsys):
    assert cli_main(["retention"]) == 0
    out = capsys.readouterr().out
    assert "policy subject-erasure" in out
    assert "policy order-expiry" in out
    assert "restricted (untouched): audits" in out
    assert "0 finding(s)" in out
    assert "retention.runs = 1" in out


@pytest.mark.parametrize("flags", [
    "",
    "--lanes 4",
    "--traffic 6 --no-double",
    "--shards 3",
    "--lsm",
    "--lsm --torn",
    "--retention",
])
def test_faultsweep_json_matches_golden(capsys, flags):
    """Byte-identity with the payloads captured before the sweep
    drivers moved onto the kernel: point choice, crash descriptions,
    recovery event counts and field order are all pinned.  Regenerate
    with ``REPRO_REGOLD=1`` (only for a deliberate change)."""
    argv = ["faultsweep", "--format", "json", "--max-points", "3"]
    assert cli_main(argv + flags.split()) == 0
    text = capsys.readouterr().out
    name = "_".join(["faultsweep"] + flags.replace("-", " ").split())
    golden = GOLDEN / f"{name}.json"
    if os.environ.get("REPRO_REGOLD"):
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(text)
        pytest.skip("golden regenerated")
    assert golden.exists(), "golden missing; regenerate with REPRO_REGOLD=1"
    assert text == golden.read_text()


@pytest.mark.parametrize("argv, rejected", [
    # Every sweep command of .github/workflows/ci.yml, bounds shrunk.
    ("faultsweep --max-points 1", None),
    ("faultsweep --lanes 4 --max-points 1", None),
    ("faultsweep --traffic 6 --max-points 1 --no-double", None),
    ("faultsweep --shards 3 --max-points 1", None),
    ("faultsweep --lsm --max-points 1", None),
    ("faultsweep --lsm --torn --max-points 1", None),
    ("mediasweep --max-points 1", None),
    ("faultsweep --retention --max-points 1 --format json", None),
    ("faultsweep --shards 3 --records 30 --max-points 1", None),
    ("faultsweep --torn --wal-tail drop --max-points 1 --no-double", None),
    ("scrub --records 24", None),  # shares the heap scenario
    # One scenario per run.
    ("faultsweep --retention --lsm", "--lsm"),
    ("faultsweep --lsm --shards 3", "--shards"),
    ("faultsweep --shards 3 --retention", "--retention"),
    # A flag the chosen scenario never reads would test something else.
    ("faultsweep --lsm --lanes 4", "--lanes"),
    ("faultsweep --lsm --traffic 2", "--traffic"),
    ("faultsweep --lsm --no-double", "--no-double"),
    ("faultsweep --retention --torn", "--torn"),
    ("faultsweep --retention --records 500", "--records"),
    ("faultsweep --shards 3 --wal-tail drop", "--wal-tail"),
    ("faultsweep --shards 3 --torn", "--torn"),
])
def test_sweep_flag_combinations(capsys, argv, rejected):
    if rejected is None:
        assert cli_main(argv.split()) == 0
        return
    with pytest.raises(SystemExit) as usage:
        cli_main(argv.split())
    assert usage.value.code == 2
    assert f"{rejected}" in capsys.readouterr().err
