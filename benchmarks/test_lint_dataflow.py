"""Benchmark guard — whole-program analyzer wall time.

The strict lint pass (rules R1-R12) builds the project-wide symbol table,
call graph and dataflow fixpoints over all of ``src/repro`` on every
``repro-motions selftest`` run, so its cost is paid constantly during
development.  This guard times an uncached end-to-end strict pass over the
real tree, records the measurement to ``benchmarks/_cache/lint_dataflow.json``
for trend tracking, and fails if the full pass exceeds a 10 s budget.  The
recorded pass over 111 files took 1.55 s on a shared 2-core x86 host, where
passes of 1.35-2.6 s have been measured, so the budget is about 4-7x the
current cost: it catches algorithmic regressions (accidental quadratic
resolution, unbounded fixpoints) without flaking on machine noise.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.context import ModuleContext
from repro.lint.graph import ProjectGraph
from repro.lint.runner import iter_python_files

CACHE_DIR = Path(__file__).parent / "_cache"
REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_TREE = REPO_ROOT / "src" / "repro"

WALL_TIME_BUDGET_S = 10.0


def test_strict_pass_stays_under_budget():
    start = time.perf_counter()
    report = lint_paths([SRC_TREE], strict=True)
    elapsed = time.perf_counter() - start

    assert report.ok, "\n".join(v.format_text() for v in report.violations)

    # Time the graph construction alone as well, so the record separates
    # "indexing got slow" from "a rule got slow".
    contexts = [ModuleContext.parse(p, r) for p, r in iter_python_files([SRC_TREE])]
    graph_start = time.perf_counter()
    graph = ProjectGraph.build(contexts)
    graph_elapsed = time.perf_counter() - graph_start

    CACHE_DIR.mkdir(exist_ok=True)
    record = {
        "schema": "repro.bench.lint_dataflow/v1",
        "files_checked": report.n_files,
        "modules_indexed": len(graph.modules),
        "functions_indexed": len(graph.functions),
        "strict_pass_seconds": round(elapsed, 3),
        "graph_build_seconds": round(graph_elapsed, 3),
        "budget_seconds": WALL_TIME_BUDGET_S,
    }
    (CACHE_DIR / "lint_dataflow.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    print(
        f"\nstrict lint over {report.n_files} files: {elapsed:.2f}s "
        f"(graph build {graph_elapsed:.2f}s, budget {WALL_TIME_BUDGET_S:.0f}s)"
    )
    assert elapsed < WALL_TIME_BUDGET_S, (
        f"whole-program analyzer took {elapsed:.2f}s, over the "
        f"{WALL_TIME_BUDGET_S:.0f}s budget"
    )
