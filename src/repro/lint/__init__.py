"""Repo-specific static analysis for the ``repro`` source tree.

The reproduction's correctness rests on conventions the paper makes
explicit — seeded FCM runs, per-window feature shapes, a single error
hierarchy — that ordinary linters cannot check.  This package parses the
tree with :mod:`ast` and enforces them.

Per-module rules (each judges one file):

========  ==============================================================
``R1``    ``np.random.*`` global-state calls only in ``utils/rng.py``
``R2``    only ``repro.errors`` classes are raised, never bare builtins
``R3``    every public module declares a complete ``__all__`` and
          cross-module imports respect the target's export surface
``R4``    no mutable default args, no float-literal ``==``, no
          wall-clock reads in core numeric paths
``R5``    public array-taking functions validate via ``check_array`` or
          declare a :func:`repro.utils.validation.shapes` contract
``R6``    no ad-hoc clock reads outside :mod:`repro.obs`
========  ==============================================================

Whole-program rules (run with ``--strict`` over the call graph built by
:mod:`repro.lint.graph`; see :mod:`repro.lint.flows`):

========  ==============================================================
``R7``    no unguarded shared mutable state reachable from functions
          dispatched through ``repro.parallel.pool_map``
``R8``    persistence writes in cache/retrieval paths go through
          :func:`repro.utils.atomicio.atomic_write`
``R9``    feature/fuzzy/signature code paths never transitively reach
          unseeded RNG, wall clocks or environment reads
``R10``   declared ``@shapes`` contracts agree across call edges
``R11``   span/metric names come from the :mod:`repro.obs.names`
          registry
``R12``   only ``ReproError`` subclasses escape public API functions
========  ==============================================================

Violations suppress per line with ``# lint: ignore[R2]`` (see
:mod:`repro.lint.suppressions`), the one way to silence a finding.
Run it as ``python -m repro.lint src/repro --strict`` or
``repro-motions lint``; the library API is :func:`lint_paths`, which
returns a :class:`LintReport`.  The full rule catalogue is documented in
``docs/LINTING.md``.
"""

from repro.lint.flows import GRAPH_RULE_IDS, GRAPH_RULES, GraphRule, run_graph_rules
from repro.lint.graph import ProjectGraph
from repro.lint.rules import ALL_RULES, RULE_IDS, Rule, rules_by_id
from repro.lint.runner import LintReport, iter_python_files, lint_paths
from repro.lint.violations import Violation
from repro.lint.cli import main

__all__ = [
    "ALL_RULES",
    "RULE_IDS",
    "GRAPH_RULES",
    "GRAPH_RULE_IDS",
    "GraphRule",
    "ProjectGraph",
    "Rule",
    "rules_by_id",
    "run_graph_rules",
    "LintReport",
    "iter_python_files",
    "lint_paths",
    "Violation",
    "main",
]
