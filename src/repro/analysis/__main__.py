"""``python -m repro.analysis`` — run the static checkers as a gate.

Three checkers: the simulation-invariant code lint (over one or more
roots — the package by default, plus ``benchmarks/ tools/ tests/`` in
CI), the planner self-check, and the whole-program effect engine
(layering contracts + lane safety; see ``docs/static_analysis.md``).

Exit status is 0 when no ERROR findings survive, 1 otherwise (2 for
usage errors), so CI can gate on it directly.  ``--format json`` emits
a machine-readable report for tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.code_lint import default_root, lint_tree
from repro.analysis.findings import Finding, Severity, render_findings
from repro.analysis.selfcheck import check_planner_output


def run_analysis(
    root: Optional[Path] = None,
    skip_code: bool = False,
    skip_plans: bool = False,
    skip_effects: bool = False,
    include_warnings: bool = True,
    extra_roots: Sequence[Path] = (),
) -> List[Finding]:
    """Run every checker; ``root`` is the package dir for the code
    lint and the effect engine, ``extra_roots`` are linted too."""
    findings: List[Finding] = []
    if not skip_code:
        findings.extend(lint_tree(root or default_root()))
        for extra in extra_roots:
            findings.extend(lint_tree(extra))
    if not skip_plans:
        findings.extend(
            check_planner_output(errors_only=not include_warnings)
        )
    if not skip_effects:
        from repro.analysis.effects import analyze_effects

        findings.extend(analyze_effects(root or default_root()).findings)
    return findings


def build_parser() -> argparse.ArgumentParser:
    """The gate's argument parser (``repro lint`` passes its arguments
    here unchanged)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "static plan linter + simulation-invariant code lint + "
            "whole-program effect engine"
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package directory to analyze (default: the installed "
        "repro package)",
    )
    parser.add_argument(
        "--also-lint",
        type=Path,
        action="append",
        default=[],
        metavar="DIR",
        help="additional directory for the code lint only (repeat for "
        "several; the effect engine stays on --root)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--skip-code", action="store_true",
        help="skip the AST code lint",
    )
    parser.add_argument(
        "--skip-plans", action="store_true",
        help="skip the planner-output self-check",
    )
    parser.add_argument(
        "--skip-effects", action="store_true",
        help="skip the whole-program effect engine",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="treat WARNING findings as failures too",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.root is not None and not args.root.is_dir():
        parser.error(f"--root {args.root} is not a directory")
    for extra in args.also_lint:
        if not extra.is_dir():
            parser.error(f"--also-lint {extra} is not a directory")

    findings = run_analysis(
        root=args.root,
        skip_code=args.skip_code,
        skip_plans=args.skip_plans,
        skip_effects=args.skip_effects,
        extra_roots=args.also_lint,
    )
    error_count = sum(
        1 for f in findings if f.severity is Severity.ERROR
    )
    warning_count = len(findings) - error_count
    failed = error_count > 0 or (args.strict and warning_count > 0)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "ok": not failed,
                    "errors": error_count,
                    "warnings": warning_count,
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
            )
        )
    else:
        if findings:
            print(render_findings(findings))
        print(
            f"repro.analysis: {error_count} error(s), "
            f"{warning_count} warning(s) — "
            + ("FAIL" if failed else "ok")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
