"""Command-line front end: ``python -m repro.lint`` / ``repro-motions lint``.

Exit codes: 0 — clean tree; 1 — violations found; 2 — usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError
from repro.lint.flows import GRAPH_RULES
from repro.lint.rules import ALL_RULES, RULE_IDS
from repro.lint.runner import LintReport, lint_paths

__all__ = [
    "build_parser",
    "default_target",
    "main",
    "run",
]


def default_target() -> str:
    """The installed ``repro`` package directory (linted when no path given)."""
    import repro

    return str(Path(repro.__file__).parent)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser (exposed for testing and for the umbrella CLI)."""
    all_ids = list(RULE_IDS) + [rule.id for rule in GRAPH_RULES]
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Repo-specific static analysis: per-module rules R1-R6 "
                    "and the whole-program dataflow rules R7-R12 over the "
                    "repro source tree",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: the installed repro package)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", nargs="+", metavar="RULE", default=None,
                        help=f"run only these rules (of {', '.join(all_ids)})")
    parser.add_argument("--strict", action="store_true",
                        help="run the whole-program dataflow pass "
                             "(rules R7-R12) on top of the per-module rules")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _print_report(report: LintReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    for violation in report.violations:
        print(violation.format_text())
    noun = "file" if report.n_files == 1 else "files"
    if report.ok:
        print(f"checked {report.n_files} {noun}: clean")
    else:
        count = len(report.violations)
        issue = "violation" if count == 1 else "violations"
        print(f"checked {report.n_files} {noun}: {count} {issue}")


def run(paths: List[str], fmt: str = "text",
        select: Optional[List[str]] = None,
        strict: bool = False) -> int:
    """Lint ``paths`` and print a report; returns the process exit code."""
    try:
        report = lint_paths(list(paths) or [default_target()],
                            select=select, strict=strict)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(report, fmt)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.title}")
        for rule in GRAPH_RULES:
            print(f"{rule.id}  {rule.title} [whole-program]")
        return 0
    return run(
        args.paths,
        fmt=args.format,
        select=args.select,
        strict=args.strict,
    )
