"""Tier-1 gate: no dead intra-repository links in the documentation.

Runs ``tools/check_doc_links.py`` over every root-level and ``docs/``
markdown file. A renamed document, a deleted figure report or a
misspelled ``#anchor`` fails here (and in CI) instead of shipping as a
dead link.  The same file set's fenced ``python -m repro ...`` commands
must parse against the CLI, so a removed command or flag cannot
outlive its documentation.
"""

import importlib.util
import re
import shlex
import sys
from pathlib import Path

from repro.analysis import __main__ as analysis_cli
from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_doc_links", REPO_ROOT / "tools" / "check_doc_links.py"
)
check_doc_links = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_doc_links", check_doc_links)
_SPEC.loader.exec_module(check_doc_links)


def test_doc_set_is_nonempty_and_includes_the_guides():
    names = {f.name for f in check_doc_links.doc_files()}
    assert "README.md" in names
    assert "EXPERIMENTS.md" in names
    assert "parallelism.md" in names
    assert "workloads.md" in names


def test_no_dead_intra_repo_links():
    problems, checked = check_doc_links.check_links(
        check_doc_links.doc_files()
    )
    assert checked, "expected the docs to contain intra-repo links"
    assert problems == []


def test_checker_catches_dead_links(tmp_path):
    (tmp_path / "docs").mkdir()
    good = tmp_path / "docs" / "real.md"
    good.write_text("# A Heading\n\nbody\n", encoding="utf-8")
    source = tmp_path / "index.md"
    source.write_text(
        "[ok](docs/real.md)\n"
        "[ok anchor](docs/real.md#a-heading)\n"
        "[gone](docs/missing.md)\n"
        "[bad anchor](docs/real.md#no-such-heading)\n"
        "```\n[inside a fence](docs/also_missing.md)\n```\n"
        "[external](https://example.com/x.md)\n",
        encoding="utf-8",
    )
    problems, checked = check_doc_links.check_links(
        [source, good], root=tmp_path
    )
    assert len(checked) == 4  # fence and external links skipped
    assert len(problems) == 2
    assert any("missing.md" in p for p in problems)
    assert any("no-such-heading" in p for p in problems)


def test_github_slug_rules():
    slug = check_doc_links.github_slug
    assert slug("Determinism under fault injection") == (
        "determinism-under-fault-injection"
    )
    assert slug("`lanes=1` is the paper's testbed, bit for bit") == (
        "lanes1-is-the-papers-testbed-bit-for-bit"
    )
    assert slug("Contention: `dedicated` vs `shared`") == (
        "contention-dedicated-vs-shared"
    )


# ----------------------------------------------------------------------
# documented commands parse against the CLI
# ----------------------------------------------------------------------
_COMMAND = re.compile(r"python -m (repro(?:\.analysis)?)(?=\s|$)(.*)")
_SHELL_OPERATOR = re.compile(r"^(\||&&|;|\d?>)")


def documented_commands(path):
    """``(where, module, argv)`` of each ``python -m repro`` or
    ``python -m repro.analysis`` command in a fenced block of ``path``.
    ``[...]`` marks optional flags, which are taken as given."""
    text = path.read_text()
    unfenced = {n for n, _ in check_doc_links._unfenced_lines(text)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _COMMAND.search(line)
        if match is None or lineno in unfenced:
            continue
        argv = []
        for word in shlex.split(
            re.sub(r"[\[\]]", " ", match.group(2)), comments=True
        ):
            if _SHELL_OPERATOR.match(word):
                break
            argv.append(word)
        yield f"{path.name}:{lineno}", match.group(1), argv


def parses(module, argv):
    """Whether ``python -m <module> <argv>`` gets past argument parsing."""
    try:
        if module == "repro":
            args, rest = build_parser().parse_known_args(argv)
            if args.command not in ("lint", "analysis"):
                return not rest
            argv = rest  # the gate's own flags, passed through
        analysis_cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return not exc.code
    return True


def unparsable(commands):
    return [
        f"{where}: python -m {module} {' '.join(argv)}"
        for where, module, argv in commands
        if not parses(module, argv)
    ]


def test_documented_commands_parse(capsys):
    files = check_doc_links.doc_files() + [
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
    ]
    commands = [c for path in files for c in documented_commands(path)]
    assert len(commands) > 20
    assert unparsable(commands) == []


def test_command_check_catches_stale_commands(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "python -m repro lsm --selfcheck\n"  # outside a fence: ignored
        "```\n"
        "$ python -m repro demo --records 20  # fine\n"
        "$ python -m repro lint --also-lint tools | tee out.txt\n"
        "$ python -m repro faultsweep [--max-points 25]\n"
        "$ python -m repro.obs.schema traces.json\n"
        "$ python -m repro recover ... (scrub=True)\n"
        "$ python -m repro lsm --selfcheck\n"
        "$ python -m repro lint --bogus\n"
        "```\n",
        encoding="utf-8",
    )
    commands = list(documented_commands(doc))
    assert [where for where, _, _ in commands] == [
        f"doc.md:{n}" for n in (3, 4, 5, 7, 8, 9)
    ]
    assert [b.split(":")[1] for b in unparsable(commands)] == [
        "7", "8", "9",
    ]
