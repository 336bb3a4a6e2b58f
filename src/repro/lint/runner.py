"""File collection and rule execution."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import LintError, ValidationError
from repro.lint.context import ModuleContext
from repro.lint.flows import GRAPH_RULE_IDS, run_graph_rules
from repro.lint.graph import ProjectGraph
from repro.lint.project import check_cross_module_exports
from repro.lint.rules import RULE_IDS, Rule, rules_by_id
from repro.lint.suppressions import SuppressionIndex
from repro.lint.violations import Violation, sort_violations

__all__ = ["LintReport", "iter_python_files", "lint_paths"]


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run."""

    violations: Tuple[Violation, ...]
    n_files: int

    @property
    def ok(self) -> bool:
        """Whether the tree is clean."""
        return not self.violations

    def to_dict(self) -> dict:
        """JSON-friendly representation for ``--format json``."""
        return {
            "files_checked": self.n_files,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }


def iter_python_files(paths: Iterable) -> List[Tuple[Path, Path]]:
    """Expand files/directories into ``(file, root)`` pairs, sorted.

    ``root`` is the directory argument a file was found under (the file's
    parent for file arguments); rules use it to compute package-relative
    paths for trees living outside a ``repro`` directory.
    """
    out: List[Tuple[Path, Path]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            out.append((path, path.parent))
        elif path.is_dir():
            out.extend((f, path) for f in sorted(path.rglob("*.py")))
        else:
            raise LintError(f"no such file or directory: {path}")
    # De-duplicate while keeping order stable.
    seen = set()
    unique: List[Tuple[Path, Path]] = []
    for pair in out:
        key = pair[0].resolve()
        if key not in seen:
            seen.add(key)
            unique.append(pair)
    return unique


def _split_select(select: Optional[Sequence[str]],
                  strict: bool) -> Tuple[Optional[List[str]], Set[str]]:
    """``(per-module select, graph rule ids)`` for one run.

    Default runs keep the historical R1–R6 behaviour; ``strict`` adds
    the whole-program pass; an explicit ``--select`` runs exactly the
    named rules (building the graph only when an R7+ rule asks for it).
    """
    if select is None:
        return None, set(GRAPH_RULE_IDS) if strict else set()
    wanted = {token.upper() for token in select}
    unknown = wanted - set(RULE_IDS) - set(GRAPH_RULE_IDS)
    if unknown:
        known = list(RULE_IDS) + list(GRAPH_RULE_IDS)
        raise ValidationError(
            f"unknown rule id(s) {sorted(unknown)}; known: {known}"
        )
    graph_ids = wanted & set(GRAPH_RULE_IDS)
    if strict:
        graph_ids = set(GRAPH_RULE_IDS)
    return sorted(wanted & set(RULE_IDS)), graph_ids


def lint_paths(
    paths: Sequence,
    select: Optional[Sequence[str]] = None,
    strict: bool = False,
) -> LintReport:
    """Lint files/directories and return the report.

    Parameters
    ----------
    paths:
        Files and/or directories (directories are walked recursively).
    select:
        Optional subset of rule ids to run (default: the per-module
        rules R1–R6).  The cross-module export check runs with R3;
        selecting any of R7–R12 builds the whole-program graph.
    strict:
        Run the whole-program dataflow pass (rules R7–R12) on top of
        whatever ``select`` names.

    Findings silenced by an inline ``# lint: ignore[...]`` comment are
    left out; there is no other way to silence one.
    """
    module_select, graph_ids = _split_select(select, strict)
    rules: Tuple[Rule, ...] = rules_by_id(module_select)
    files = iter_python_files(paths)
    contexts: List[ModuleContext] = []
    violations: List[Violation] = []
    for path, root in files:
        try:
            ctx = ModuleContext.parse(path, root)
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            suppressions = _best_effort_suppressions(path)
            if not suppressions.is_suppressed("E0", line):
                violations.append(Violation(
                    rule="E0", path=str(path), line=line, col=0,
                    message=f"could not parse file: {exc}",
                ))
            continue
        contexts.append(ctx)
        for rule in rules:
            for violation in rule.check(ctx):
                if not ctx.suppressions.is_suppressed(violation.rule,
                                                      violation.line):
                    violations.append(violation)
    by_path = {str(ctx.path): ctx for ctx in contexts}
    if module_select is None or "R3" in module_select:
        for violation in check_cross_module_exports(contexts):
            ctx = by_path[violation.path]
            if not ctx.suppressions.is_suppressed(violation.rule, violation.line):
                violations.append(violation)
    if graph_ids:
        graph = ProjectGraph.build(contexts)
        for violation in run_graph_rules(graph, sorted(graph_ids)):
            ctx = by_path.get(violation.path)
            if ctx is not None and ctx.suppressions.is_suppressed(
                    violation.rule, violation.line):
                continue
            violations.append(violation)
    return LintReport(
        violations=sort_violations(violations),
        n_files=len(files),
    )


def _best_effort_suppressions(path: Path) -> SuppressionIndex:
    try:
        return SuppressionIndex.from_source(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError):
        return SuppressionIndex({}, frozenset())
