"""The ``python -m repro.analysis`` gate and the ``repro lint`` CLI.

Acceptance: exit 0 on the repo itself, nonzero with structured
findings on a seeded-violation tree, JSON output for tooling.
"""

import json

from repro.analysis.__main__ import main as analysis_main
from repro.cli import main as cli_main

VIOLATING_SOURCE = """\
import random
import time


def jitter(disk, page_id):
    time.sleep(0)
    start = time.perf_counter()
    disk.read_page(page_id)
    return start + random.random()
"""

CLEAN_SOURCE = """\
import random


def sample(seed):
    return random.Random(seed).randint(0, 9)
"""


def seed_tree(tmp_path, source):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(source)
    return pkg


def test_gate_passes_on_the_repo(capsys):
    assert analysis_main([]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out
    assert "ok" in out


def test_gate_fails_on_seeded_violations(tmp_path, capsys):
    root = seed_tree(tmp_path, VIOLATING_SOURCE)
    assert analysis_main(
        ["--root", str(root), "--skip-plans"]
    ) == 1
    out = capsys.readouterr().out
    assert "code/wall-clock" in out
    assert "code/unseeded-random" in out
    assert "code/raw-page-io" in out
    assert "FAIL" in out


def test_gate_passes_on_clean_tree(tmp_path):
    root = seed_tree(tmp_path, CLEAN_SOURCE)
    assert analysis_main(
        ["--root", str(root), "--skip-plans"]
    ) == 0


def test_json_format_is_structured(tmp_path, capsys):
    root = seed_tree(tmp_path, VIOLATING_SOURCE)
    assert analysis_main(
        ["--root", str(root), "--skip-plans", "--format", "json"]
    ) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["errors"] >= 3
    rules = {f["rule"] for f in report["findings"]}
    assert {"code/wall-clock", "code/unseeded-random",
            "code/raw-page-io"} <= rules
    sample = report["findings"][0]
    assert {"rule", "severity", "node", "message", "file",
            "line"} <= set(sample)


def test_strict_mode_fails_on_warnings(tmp_path):
    # The planner corpus deliberately contains one WARNING case
    # (delayed unique index under a tight budget): --strict turns the
    # otherwise-green run into a failure.
    root = seed_tree(tmp_path, CLEAN_SOURCE)
    assert analysis_main(["--root", str(root)]) == 0
    assert analysis_main(["--root", str(root), "--strict"]) == 1


def test_repro_lint_subcommand(tmp_path, capsys):
    assert cli_main(["lint"]) == 0
    capsys.readouterr()
    root = seed_tree(tmp_path, VIOLATING_SOURCE)
    assert cli_main(
        ["analysis", "--root", str(root), "--skip-plans",
         "--format", "json"]
    ) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["errors"] >= 3
    # Every flag of the gate passes through, --also-lint included.
    assert cli_main(
        ["lint", "--skip-plans", "--skip-effects", "--also-lint", str(root)]
    ) == 1
    assert "code/wall-clock" in capsys.readouterr().out
