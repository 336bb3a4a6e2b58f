"""Guard test: the shipped source tree must satisfy its own linter.

This is the tier-1 wiring for the static-analysis subsystem — any commit
that introduces a rule violation in ``src/repro`` fails here, both through
the in-process API and through the real ``python -m repro.lint`` process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_TREE = REPO_ROOT / "src" / "repro"


def test_source_tree_is_clean():
    report = lint_paths([SRC_TREE])
    assert report.ok, "\n".join(v.format_text() for v in report.violations)
    assert report.n_files > 50  # the whole package was walked, not a subset


def test_source_tree_is_strict_clean():
    """The whole-program pass (R7-R12) holds over the whole tree."""
    report = lint_paths([SRC_TREE], strict=True)
    assert report.ok, "\n".join(v.format_text() for v in report.violations)


def test_module_invocation_exits_zero_with_json_report():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(SRC_TREE), "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["violations"] == []
    assert payload["files_checked"] > 50
