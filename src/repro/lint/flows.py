"""Whole-program dataflow rules R7–R12.

These rules consume the :class:`~repro.lint.graph.ProjectGraph` built
over the whole linted tree, so one finding can name a property that only
holds *transitively* — a clock read three calls below a feature kernel,
a builtin exception escaping a public API through a private helper.

==== =================================================================
R7   No unguarded shared mutable state reachable from parallel workers.
R8   Persistence writes in cache/retrieval paths go through
     ``atomic_write``.
R9   Feature/fuzzy/signature code paths never reach unseeded RNG, wall
     clocks or environment reads through any call chain.
R10  ``@shapes`` contracts stay consistent across caller→callee edges.
R11  Span/metric names come from the ``repro.obs.names`` registry.
R12  Only ``ReproError`` subclasses escape public API functions.
==== =================================================================

Every rule is a pure function of the graph; reports are deterministic
(sorted iteration everywhere) so two runs over the same tree emit
byte-identical JSON.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.graph import FunctionNode, ProjectGraph, QName
from repro.lint.violations import Violation

__all__ = ["GRAPH_RULE_IDS", "GRAPH_RULES", "GraphRule", "run_graph_rules"]

#: Sub-trees whose persistence writes must be atomic (R8).
_ATOMIC_WRITE_DIRS = ("parallel", "retrieval")

#: Sub-trees forming the deterministic numeric pipeline (R9 entry points).
_DETERMINISTIC_DIRS = ("core", "features", "fuzzy", "signal")

#: The module housing the seeded-RNG plumbing; its own ``np.random``
#: calls are the sanctioned construction sites.
_RNG_HOME = ("utils", "rng")

#: The observability registry module R11 reads its name catalogue from.
_OBS_NAMES_MODULE = ("obs", "names")

#: Builtin exceptions that may escape public APIs besides ReproError:
#: protocol signals and interpreter control flow, not error reporting.
_ALLOWED_BUILTIN_ESCAPES = frozenset({
    "NotImplementedError", "StopIteration", "StopAsyncIteration",
    "GeneratorExit", "KeyboardInterrupt", "SystemExit",
})


@dataclass(frozen=True)
class GraphRule:
    """One whole-program rule: an id, a title, and a graph checker."""

    id: str
    title: str
    check: Callable[[ProjectGraph], List[Violation]]


def _chain_text(graph: ProjectGraph,
                parents: Dict[QName, Optional[QName]], qname: QName) -> str:
    return " -> ".join(".".join(q) for q in graph.chain(parents, qname))


# ----------------------------------------------------------------------
# R7 — concurrency safety across executor dispatch
# ----------------------------------------------------------------------


def check_parallel_shared_state(graph: ProjectGraph) -> List[Violation]:
    """Flag unguarded shared-state mutations reachable from worker roots.

    A worker root is any function passed to ``repro.parallel.pool_map``;
    with more than one job it runs in worker processes, concurrently with
    the parent and with its siblings.  Mutating module-level
    or captured mutable state from such a function is a race unless the
    mutation is lock-guarded (``with <...lock...>:``) or the line carries
    an explicit ownership marker (``# lint: owner[reason]``).
    """
    violations: List[Violation] = []
    roots = sorted(set(root for root, _, _ in graph.dispatch_sites()))
    if not roots:
        return violations
    root_names = ", ".join(".".join(r) for r in roots)
    parents = graph.reachable(roots)
    seen: Set[Tuple[QName, int, str]] = set()
    for qname in sorted(parents):
        fnode = graph.functions[qname]
        facts = graph.facts[qname]
        ctx = graph.contexts[fnode.path]
        for lineno, name, kind in facts.global_mut + facts.captured_mut:
            key = (qname, lineno, name)
            if key in seen:
                continue
            seen.add(key)
            if ctx.suppressions.has_owner(lineno):
                continue
            shared = ("captured variable" if (lineno, name, kind)
                      in facts.captured_mut else "module-level state")
            violations.append(Violation(
                rule="R7", path=fnode.path, line=lineno, col=0,
                message=(
                    f"{shared} '{name}' mutated ({kind}) in "
                    f"'{fnode.dotted}', which is reachable from parallel "
                    f"worker(s) {root_names} "
                    f"(via {_chain_text(graph, parents, qname)}); guard the "
                    f"mutation with a lock or document single-ownership "
                    f"with '# lint: owner[...]'"
                ),
            ))
    return violations


# ----------------------------------------------------------------------
# R8 — atomic-write discipline in cache/retrieval paths
# ----------------------------------------------------------------------


def check_atomic_writes(graph: ProjectGraph) -> List[Violation]:
    """Flag raw persistence writes in the cache and retrieval sub-trees.

    Concurrent writers racing on one destination path is exactly the bug
    shipped (and fixed) in the feature cache: two processes sharing a
    temp file.  Every write that lands on disk in ``repro/parallel`` or
    ``repro/retrieval`` must go through ``repro.utils.atomicio
    .atomic_write`` so the visible file is always complete.
    """
    violations: List[Violation] = []
    for qname in sorted(graph.functions):
        fnode = graph.functions[qname]
        if not fnode.module or fnode.module[0] not in _ATOMIC_WRITE_DIRS:
            continue
        for lineno, description in graph.facts[qname].writes:
            violations.append(Violation(
                rule="R8", path=fnode.path, line=lineno, col=0,
                message=(
                    f"raw persistence write {description} in "
                    f"'{fnode.dotted}'; route it through "
                    f"repro.utils.atomicio.atomic_write so concurrent "
                    f"writers cannot expose partial files"
                ),
            ))
    return violations


# ----------------------------------------------------------------------
# R9 — transitive determinism of the numeric pipeline
# ----------------------------------------------------------------------


def _r9_entries(graph: ProjectGraph) -> List[QName]:
    entries: List[QName] = []
    for qname in sorted(graph.functions):
        fnode = graph.functions[qname]
        if not fnode.module or fnode.module[0] not in _DETERMINISTIC_DIRS:
            continue
        symbols = graph.modules.get(fnode.module)
        if symbols is None or not symbols.is_public:
            continue
        if fnode.name.startswith("_"):
            continue
        if fnode.cls is not None and fnode.cls.startswith("_"):
            continue
        if len(qname) > len(fnode.module) + (2 if fnode.cls else 1):
            continue  # nested helper, not an entry point
        entries.append(qname)
    return entries


def check_transitive_determinism(graph: ProjectGraph) -> List[Violation]:
    """Flag RNG/clock/env reach from public numeric entry points.

    R1 and R6 keep each core module locally clean; this closes the
    loophole of a feature kernel calling *out* to a helper that consults
    ``np.random``, the wall clock or the process environment.  Sanctioned
    sinks — the seeded generator plumbing in ``repro.utils.rng`` and the
    observability layer's span timing — are exempt.
    """
    violations: List[Violation] = []
    entries = _r9_entries(graph)
    if not entries:
        return violations
    parents = graph.reachable(entries)
    entry_set = set(entries)
    seen: Set[Tuple[QName, int, str]] = set()
    for qname in sorted(parents):
        fnode = graph.functions[qname]
        facts = graph.facts[qname]
        offending: List[Tuple[int, str, str]] = []
        if fnode.module != _RNG_HOME:
            offending += [(line, "unseeded RNG call", d) for line, d in facts.rng]
        if not fnode.module or fnode.module[0] != "obs":
            offending += [(line, "wall-clock read", d) for line, d in facts.clock]
        offending += [(line, "environment read", d) for line, d in facts.env]
        for lineno, what, detail in sorted(offending):
            key = (qname, lineno, detail)
            if key in seen:
                continue
            seen.add(key)
            witness = graph.chain(parents, qname)[0]
            via = (f" (reached via {_chain_text(graph, parents, qname)})"
                   if qname not in entry_set else "")
            violations.append(Violation(
                rule="R9", path=fnode.path, line=lineno, col=0,
                message=(
                    f"{what} '{detail}' is reachable from public numeric "
                    f"entry point '{'.'.join(witness)}'{via}; thread a "
                    f"seeded Generator / injected clock through instead"
                ),
            ))
    return violations


# ----------------------------------------------------------------------
# R10 — shape-contract flow across call edges
# ----------------------------------------------------------------------


def _spec_dims(spec: str):
    from repro.utils.validation import parse_shape_spec

    try:
        return parse_shape_spec(spec)
    except Exception:
        return None


def _aligned_dims(caller, callee):
    """Comparable ``(caller_dim, callee_dim)`` pairs for two specs.

    Without an ellipsis the ranks must match exactly (rank mismatch is
    reported separately).  With an ellipsis in either spec, the dims
    before it align from the front and the dims after it from the back.
    """
    if Ellipsis not in caller and Ellipsis not in callee:
        return list(zip(caller, callee))
    def split(dims):
        if Ellipsis in dims:
            i = dims.index(Ellipsis)
            return list(dims[:i]), list(dims[i + 1:])
        return list(dims), []
    c_head, c_tail = split(caller)
    e_head, e_tail = split(callee)
    if Ellipsis not in caller:
        c_head, c_tail = list(caller), []
    if Ellipsis not in callee:
        e_head, e_tail = list(callee), []
    pairs = list(zip(c_head, e_head))
    pairs += list(zip(reversed(c_tail or list(caller)[len(pairs):]),
                      reversed(e_tail or list(callee)[len(pairs):])))
    return pairs


def check_shape_contract_flow(graph: ProjectGraph) -> List[Violation]:
    """Flag ``@shapes`` contracts that disagree across a call edge.

    When a contracted parameter of the caller is passed straight through
    to a contracted parameter of the callee, the two declared specs must
    be mutually satisfiable: equal ranks (modulo ``...``), equal
    concrete dims, and one consistent integer per symbolic dim across
    the whole call.
    """
    violations: List[Violation] = []
    for qname in sorted(graph.functions):
        caller = graph.functions[qname]
        if not caller.shape_specs:
            continue
        for call in graph.facts[qname].calls:
            if call.callee is None:
                continue
            callee = graph.functions.get(call.callee)
            if callee is None or not callee.shape_specs:
                continue
            params = list(callee.params)
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            matched: List[Tuple[str, str]] = []
            for i, arg_name in enumerate(call.arg_names):
                if arg_name is not None and i < len(params):
                    matched.append((arg_name, params[i]))
            for kw, arg_name in call.kw_names:
                if arg_name is not None:
                    matched.append((arg_name, kw))
            symbol_bindings: Dict[str, Tuple[int, str]] = {}
            for arg_name, param in matched:
                caller_spec = caller.shape_specs.get(arg_name)
                callee_spec = callee.shape_specs.get(param)
                if caller_spec is None or callee_spec is None:
                    continue
                c_dims = _spec_dims(caller_spec)
                e_dims = _spec_dims(callee_spec)
                if c_dims is None or e_dims is None:
                    continue
                if (Ellipsis not in c_dims and Ellipsis not in e_dims
                        and len(c_dims) != len(e_dims)):
                    violations.append(Violation(
                        rule="R10", path=caller.path, line=call.lineno, col=0,
                        message=(
                            f"shape-contract rank mismatch passing "
                            f"'{arg_name}' to '{callee.dotted}': caller "
                            f"declares \"{caller_spec}\" (rank "
                            f"{len(c_dims)}) but callee parameter "
                            f"'{param}' declares \"{callee_spec}\" (rank "
                            f"{len(e_dims)})"
                        ),
                    ))
                    continue
                for c_dim, e_dim in _aligned_dims(c_dims, e_dims):
                    if isinstance(c_dim, int) and isinstance(e_dim, int):
                        if c_dim != e_dim:
                            violations.append(Violation(
                                rule="R10", path=caller.path,
                                line=call.lineno, col=0,
                                message=(
                                    f"shape-contract dim conflict passing "
                                    f"'{arg_name}' to '{callee.dotted}': "
                                    f"caller declares \"{caller_spec}\" "
                                    f"but callee parameter '{param}' "
                                    f"declares \"{callee_spec}\" "
                                    f"({c_dim} != {e_dim})"
                                ),
                            ))
                            break
                    elif isinstance(c_dim, str) and isinstance(e_dim, int):
                        prev = symbol_bindings.get(c_dim)
                        if prev is not None and prev[0] != e_dim:
                            violations.append(Violation(
                                rule="R10", path=caller.path,
                                line=call.lineno, col=0,
                                message=(
                                    f"shape-contract symbol conflict in "
                                    f"call to '{callee.dotted}': caller "
                                    f"dim '{c_dim}' is pinned to "
                                    f"{prev[0]} by parameter "
                                    f"'{prev[1]}' but parameter "
                                    f"'{param}' (\"{callee_spec}\") "
                                    f"requires {e_dim}"
                                ),
                            ))
                            break
                        symbol_bindings.setdefault(c_dim, (e_dim, param))
    return violations


# ----------------------------------------------------------------------
# R11 — observability naming discipline
# ----------------------------------------------------------------------


def _load_obs_registry(graph: ProjectGraph):
    """``(names, prefixes)`` per kind from ``repro.obs.names``, or None."""
    symbols = graph.modules.get(_OBS_NAMES_MODULE)
    if symbols is None:
        return None
    ctx = graph.contexts.get(symbols.path)
    if ctx is None:
        return None
    tables: Dict[str, FrozenSet[str]] = {}
    wanted = {"SPAN_NAMES", "METRIC_NAMES", "SPAN_PREFIXES",
              "METRIC_PREFIXES", "EVENT_NAMES", "EVENT_PREFIXES"}
    for stmt in ctx.tree.body:
        targets = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target.id]
            value = stmt.value
        for name in targets:
            if name not in wanted or value is None:
                continue
            if isinstance(value, ast.Call):
                value = value.args[0] if value.args else None
            if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                items = [e.value for e in value.elts
                         if isinstance(e, ast.Constant)
                         and isinstance(e.value, str)]
                tables[name] = frozenset(items)
    return {
        "span": (tables.get("SPAN_NAMES", frozenset()),
                 tables.get("SPAN_PREFIXES", frozenset())),
        "metric": (tables.get("METRIC_NAMES", frozenset()),
                   tables.get("METRIC_PREFIXES", frozenset())),
        "event": (tables.get("EVENT_NAMES", frozenset()),
                  tables.get("EVENT_PREFIXES", frozenset())),
    }


def check_obs_naming(graph: ProjectGraph) -> List[Violation]:
    """Flag span/metric/event names not drawn from the declared registry.

    The registry (``repro.obs.names``) is the single place dashboards
    and tests key on; ad-hoc strings drift silently.  Literal names must
    appear in the registry, f-strings must start with a registered
    dynamic prefix, and fully dynamic names are rejected outright.
    Absent the registry module the rule stays silent (fixture trees).
    """
    registry = _load_obs_registry(graph)
    if registry is None:
        return []
    violations: List[Violation] = []
    for qname in sorted(graph.functions):
        fnode = graph.functions[qname]
        if fnode.module and fnode.module[0] == "obs":
            continue
        for lineno, kind, text, is_prefix, is_dynamic in \
                graph.facts[qname].obs_names:
            names, prefixes = registry[kind]
            if is_dynamic:
                violations.append(Violation(
                    rule="R11", path=fnode.path, line=lineno, col=0,
                    message=(
                        f"fully dynamic {kind} name in '{fnode.dotted}'; "
                        f"use a literal from repro.obs.names or an "
                        f"f-string starting with a registered prefix"
                    ),
                ))
            elif is_prefix:
                if not text or not any(text.startswith(p) for p in sorted(prefixes)):
                    violations.append(Violation(
                        rule="R11", path=fnode.path, line=lineno, col=0,
                        message=(
                            f"dynamic {kind} name prefix '{text}' in "
                            f"'{fnode.dotted}' is not registered in "
                            f"repro.obs.names ({kind.upper()}_PREFIXES)"
                        ),
                    ))
            else:
                if text not in names and not any(
                        text.startswith(p) for p in sorted(prefixes)):
                    violations.append(Violation(
                        rule="R11", path=fnode.path, line=lineno, col=0,
                        message=(
                            f"{kind} name '{text}' in '{fnode.dotted}' is "
                            f"not registered in repro.obs.names; add it to "
                            f"{kind.upper()}_NAMES or use a registered "
                            f"prefix"
                        ),
                    ))
    return violations


# ----------------------------------------------------------------------
# R12 — exception flow out of the public API
# ----------------------------------------------------------------------


def _public_api_functions(graph: ProjectGraph) -> List[QName]:
    public: Set[QName] = set()
    for key in sorted(graph.modules):
        symbols = graph.modules[key]
        if not symbols.is_public or symbols.all_names is None:
            continue
        for name in symbols.all_names:
            resolved = graph.resolve(key, [name])
            if resolved is None:
                continue
            kind, target = resolved
            if kind == "func":
                public.add(target)
            elif kind == "class":
                info = graph.classes.get(target)
                if info is None:
                    continue
                for method, mq in sorted(info.methods.items()):
                    if (not method.startswith("_")
                            or method in ("__init__", "__call__")):
                        public.add(mq)
    return sorted(public)


def check_exception_flow(graph: ProjectGraph) -> List[Violation]:
    """Flag non-``ReproError`` exceptions escaping public API functions.

    Computed transitively over the call graph with ``try`` absorption:
    a ``KeyError`` raised four helpers deep is still an API contract
    violation if nothing on the path catches it.  Control-flow builtins
    (``StopIteration``, ``KeyboardInterrupt``, ...) and unresolvable
    names are allowed; everything else must derive from ``ReproError``.
    """
    violations: List[Violation] = []
    escapes = graph.escaping_exceptions()
    seen: Set[Tuple[QName, str]] = set()
    for qname in _public_api_functions(graph):
        fnode = graph.functions[qname]
        for exc_name in sorted(escapes.get(qname, ())):
            if (qname, exc_name) in seen:
                continue
            seen.add((qname, exc_name))
            if graph.is_repro_error(exc_name):
                continue
            if exc_name in _ALLOWED_BUILTIN_ESCAPES:
                continue
            builtin = getattr(builtins, exc_name, None)
            is_builtin_exc = (isinstance(builtin, type)
                              and issubclass(builtin, BaseException))
            if not graph.is_project_class(exc_name) and not is_builtin_exc:
                continue  # unresolvable third-party name: trust it
            origin_path, origin_line = escapes[qname][exc_name]
            violations.append(Violation(
                rule="R12", path=fnode.path, line=fnode.lineno, col=0,
                message=(
                    f"public API function '{fnode.dotted}' can leak "
                    f"'{exc_name}' (raised at {origin_path}:{origin_line}); "
                    f"catch it and re-raise a ReproError subclass"
                ),
            ))
    return violations


# ----------------------------------------------------------------------
# Catalogue
# ----------------------------------------------------------------------

GRAPH_RULES: Tuple[GraphRule, ...] = (
    GraphRule("R7", "no unguarded shared state behind parallel executors",
              check_parallel_shared_state),
    GraphRule("R8", "cache/retrieval persistence writes are atomic",
              check_atomic_writes),
    GraphRule("R9", "numeric pipeline is transitively deterministic",
              check_transitive_determinism),
    GraphRule("R10", "@shapes contracts agree across call edges",
              check_shape_contract_flow),
    GraphRule("R11", "span/metric/event names come from the obs registry",
              check_obs_naming),
    GraphRule("R12", "only ReproError subclasses escape the public API",
              check_exception_flow),
)

GRAPH_RULE_IDS: Tuple[str, ...] = tuple(rule.id for rule in GRAPH_RULES)


def run_graph_rules(graph: ProjectGraph,
                    select: Optional[Sequence[str]] = None) -> List[Violation]:
    """Run the selected whole-program rules (all of them when None)."""
    wanted = (set(GRAPH_RULE_IDS) if select is None
              else {token.upper() for token in select})
    violations: List[Violation] = []
    for rule in GRAPH_RULES:
        if rule.id in wanted:
            violations.extend(rule.check(graph))
    return violations
