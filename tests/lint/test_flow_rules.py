"""Fixture tests for the whole-program rules R7–R12 and the strict CLI.

Each rule gets at least one fixture proving it fires on bad code and one
proving it stays silent on good code, per the subsystem's acceptance
contract.  Fixtures go through ``lint_paths(..., select=[...])`` so file
collection, graph construction and suppression filtering run exactly as
in a real strict pass.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.lint import lint_paths
from repro.lint.cli import main as lint_main

#: Minimal executor module making ``pool_map`` resolvable in fixtures.
EXECUTOR = "def pool_map(fn, items, n_jobs=1):\n    return [fn(x) for x in items]\n"

#: Minimal obs facade making span/metric calls resolvable in fixtures.
OBS_CONFIG = (
    "def span(name, **attrs):\n    return None\n\n"
    "def traced(name):\n    def deco(fn):\n        return fn\n    return deco\n\n"
    "def record_counter(name, value=1):\n    return None\n\n"
    "def record_gauge(name, value):\n    return None\n\n"
    "def record_series(name, value):\n    return None\n\n"
    "def record_event(name, **attrs):\n    return None\n\n"
    "def time_histogram(name):\n    return None\n"
)

#: Project error hierarchy for R12 fixtures.
ERRORS = (
    "class ReproError(Exception):\n    pass\n\n"
    "class ValidationError(ReproError, ValueError):\n    pass\n"
)


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def lint(root, files, select):
    write_tree(root, files)
    return lint_paths([root], select=select)


def rules_of(report):
    return [v.rule for v in report.violations]


# ----------------------------------------------------------------------
# R7 — shared state behind parallel executors
# ----------------------------------------------------------------------


class TestR7:
    def _tree(self, worker_body):
        return {
            "parallel/executor.py": EXECUTOR,
            "work.py": worker_body,
            "driver.py": "from repro.parallel.executor import pool_map\n"
                         "from repro.work import worker\n\n"
                         "def run(items):\n"
                         "    return pool_map(worker, items)\n",
        }

    def test_fires_on_module_global_mutation(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "_CACHE = {}\n\n"
            "def worker(x):\n"
            "    _CACHE[x] = x\n"
            "    return x\n"
        ), select=["R7"])
        assert rules_of(report) == ["R7"]
        violation = report.violations[0]
        assert violation.path.endswith("work.py")
        assert "_CACHE" in violation.message
        assert "work.worker" in violation.message

    def test_fires_transitively_through_helper(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "STATS = []\n\n"
            "def _bump(x):\n"
            "    STATS.append(x)\n\n"
            "def worker(x):\n"
            "    _bump(x)\n"
            "    return x\n"
        ), select=["R7"])
        assert rules_of(report) == ["R7"]
        assert "work.worker -> work._bump" in report.violations[0].message

    def test_silent_when_lock_guarded(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "import threading\n\n"
            "_CACHE = {}\n"
            "_LOCK = threading.Lock()\n\n"
            "def worker(x):\n"
            "    with _LOCK:\n"
            "        _CACHE[x] = x\n"
            "    return x\n"
        ), select=["R7"])
        assert report.ok

    def test_silent_with_owner_marker(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "_CACHE = {}\n\n"
            "def worker(x):\n"
            "    _CACHE[x] = x  # lint: owner[process-local; reset per fork]\n"
            "    return x\n"
        ), select=["R7"])
        assert report.ok

    def test_silent_on_local_state(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "def worker(x):\n"
            "    acc = {}\n"
            "    acc[x] = x\n"
            "    return acc\n"
        ), select=["R7"])
        assert report.ok

    def test_fires_on_captured_mutation_in_dispatched_closure(self, tmp_path):
        report = lint(tmp_path, {
            "parallel/executor.py": EXECUTOR,
            "driver.py": "from repro.parallel.executor import pool_map\n\n"
                         "def run(items):\n"
                         "    seen = []\n"
                         "    def worker(x):\n"
                         "        seen.append(x)\n"
                         "        return x\n"
                         "    return pool_map(worker, items)\n",
        }, select=["R7"])
        assert rules_of(report) == ["R7"]
        assert "captured" in report.violations[0].message


# ----------------------------------------------------------------------
# R8 — atomic persistence writes in cache/retrieval paths
# ----------------------------------------------------------------------


class TestR8:
    def test_fires_on_raw_open_write(self, tmp_path):
        report = lint(tmp_path, {
            "parallel/store.py":
                "def save(path, text):\n"
                "    with open(path, \"w\") as handle:\n"
                "        handle.write(text)\n",
        }, select=["R8"])
        assert rules_of(report) == ["R8"]
        assert "atomic_write" in report.violations[0].message

    def test_fires_on_inline_replace_dance(self, tmp_path):
        report = lint(tmp_path, {
            "retrieval/persist.py":
                "import os\n\n"
                "def save(path, tmp):\n"
                "    os.replace(tmp, path)\n",
        }, select=["R8"])
        assert rules_of(report) == ["R8"]

    def test_silent_inside_atomic_write(self, tmp_path):
        report = lint(tmp_path, {
            "parallel/store.py":
                "from repro.utils.atomicio import atomic_write\n\n"
                "def save(path, text):\n"
                "    with atomic_write(path, mode=\"w\") as handle:\n"
                "        handle.write(text)\n",
        }, select=["R8"])
        assert report.ok

    def test_silent_outside_scoped_dirs(self, tmp_path):
        report = lint(tmp_path, {
            "eval/report.py":
                "def save(path, text):\n"
                "    with open(path, \"w\") as handle:\n"
                "        handle.write(text)\n",
        }, select=["R8"])
        assert report.ok

    def test_silent_on_read_only_open(self, tmp_path):
        report = lint(tmp_path, {
            "parallel/store.py":
                "def load(path):\n"
                "    with open(path, \"rb\") as handle:\n"
                "        return handle.read()\n",
        }, select=["R8"])
        assert report.ok


# ----------------------------------------------------------------------
# R9 — transitive determinism of the numeric pipeline
# ----------------------------------------------------------------------


class TestR9:
    def test_fires_on_transitive_rng_reach(self, tmp_path):
        report = lint(tmp_path, {
            "features/kernel.py":
                "from repro.helpers import jitter\n\n"
                "def extract(x):\n"
                "    return jitter(x)\n",
            "helpers.py":
                "import numpy as np\n\n"
                "def jitter(x):\n"
                "    return x + np.random.rand()\n",
        }, select=["R9"])
        assert rules_of(report) == ["R9"]
        violation = report.violations[0]
        assert violation.path.endswith("helpers.py")
        assert "features.kernel.extract" in violation.message
        assert "np.random.rand" in violation.message

    def test_fires_on_clock_read(self, tmp_path):
        report = lint(tmp_path, {
            "fuzzy/cmeans.py":
                "import time\n\n"
                "def fit(x):\n"
                "    return time.perf_counter()\n",
        }, select=["R9"])
        assert rules_of(report) == ["R9"]
        assert "wall-clock" in report.violations[0].message

    def test_fires_on_env_read(self, tmp_path):
        report = lint(tmp_path, {
            "core/model.py":
                "import os\n\n"
                "def fit(x):\n"
                "    return os.getenv(\"SEED\")\n",
        }, select=["R9"])
        assert rules_of(report) == ["R9"]
        assert "environment read" in report.violations[0].message

    def test_silent_on_seeded_rng_plumbing(self, tmp_path):
        report = lint(tmp_path, {
            "features/kernel.py":
                "from repro.utils.rng import as_generator\n\n"
                "def extract(x, seed=None):\n"
                "    return as_generator(seed)\n",
            "utils/rng.py":
                "import numpy as np\n\n"
                "def as_generator(seed):\n"
                "    return np.random.default_rng(seed)\n",
        }, select=["R9"])
        assert report.ok

    def test_silent_on_private_helpers_without_public_entry(self, tmp_path):
        report = lint(tmp_path, {
            "features/_impl.py":
                "import time\n\n"
                "def _probe(x):\n"
                "    return time.time()\n",
        }, select=["R9"])
        assert report.ok


# ----------------------------------------------------------------------
# R10 — shape-contract flow across call edges
# ----------------------------------------------------------------------


class TestR10:
    def test_fires_on_rank_mismatch(self, tmp_path):
        report = lint(tmp_path, {
            "a.py":
                "from repro.utils.validation import shapes\n"
                "from repro.b import consume\n\n"
                "@shapes(x=\"(n, d)\")\n"
                "def produce(x):\n"
                "    return consume(x)\n",
            "b.py":
                "from repro.utils.validation import shapes\n\n"
                "@shapes(x=\"(n, d, k)\")\n"
                "def consume(x):\n"
                "    return x\n",
        }, select=["R10"])
        assert rules_of(report) == ["R10"]
        assert "rank mismatch" in report.violations[0].message

    def test_fires_on_concrete_dim_conflict(self, tmp_path):
        report = lint(tmp_path, {
            "a.py":
                "from repro.utils.validation import shapes\n"
                "from repro.b import consume\n\n"
                "@shapes(x=\"(n, 3)\")\n"
                "def produce(x):\n"
                "    return consume(x)\n",
            "b.py":
                "from repro.utils.validation import shapes\n\n"
                "@shapes(x=\"(n, 4)\")\n"
                "def consume(x):\n"
                "    return x\n",
        }, select=["R10"])
        assert rules_of(report) == ["R10"]
        assert "3 != 4" in report.violations[0].message

    def test_fires_on_symbol_pinned_to_conflicting_ints(self, tmp_path):
        report = lint(tmp_path, {
            "a.py":
                "from repro.utils.validation import shapes\n"
                "from repro.b import consume\n\n"
                "@shapes(x=\"(n, d)\", y=\"(n, d)\")\n"
                "def produce(x, y):\n"
                "    return consume(x, y)\n",
            "b.py":
                "from repro.utils.validation import shapes\n\n"
                "@shapes(x=\"(m, 3)\", y=\"(m, 4)\")\n"
                "def consume(x, y):\n"
                "    return x\n",
        }, select=["R10"])
        assert rules_of(report) == ["R10"]
        assert "symbol conflict" in report.violations[0].message

    def test_silent_on_consistent_contracts(self, tmp_path):
        report = lint(tmp_path, {
            "a.py":
                "from repro.utils.validation import shapes\n"
                "from repro.b import consume\n\n"
                "@shapes(x=\"(n, d)\")\n"
                "def produce(x):\n"
                "    return consume(x)\n",
            "b.py":
                "from repro.utils.validation import shapes\n\n"
                "@shapes(x=\"(rows, cols)\")\n"
                "def consume(x):\n"
                "    return x\n",
        }, select=["R10"])
        assert report.ok

    def test_silent_with_ellipsis_tail_alignment(self, tmp_path):
        report = lint(tmp_path, {
            "a.py":
                "from repro.utils.validation import shapes\n"
                "from repro.b import consume\n\n"
                "@shapes(x=\"(n, w, d)\")\n"
                "def produce(x):\n"
                "    return consume(x)\n",
            "b.py":
                "from repro.utils.validation import shapes\n\n"
                "@shapes(x=\"(..., d)\")\n"
                "def consume(x):\n"
                "    return x\n",
        }, select=["R10"])
        assert report.ok

    def test_keyword_argument_matched(self, tmp_path):
        report = lint(tmp_path, {
            "a.py":
                "from repro.utils.validation import shapes\n"
                "from repro.b import consume\n\n"
                "@shapes(m=\"(n, 2)\")\n"
                "def produce(m):\n"
                "    return consume(x=m)\n",
            "b.py":
                "from repro.utils.validation import shapes\n\n"
                "@shapes(x=\"(n, 5)\")\n"
                "def consume(x):\n"
                "    return x\n",
        }, select=["R10"])
        assert rules_of(report) == ["R10"]


# ----------------------------------------------------------------------
# R11 — observability naming discipline
# ----------------------------------------------------------------------


class TestR11:
    REGISTRY = (
        "SPAN_NAMES = frozenset({\"model.fit\"})\n"
        "SPAN_PREFIXES = frozenset()\n"
        "METRIC_NAMES = frozenset({\"model.fits\", \"model.latency_s\"})\n"
        "METRIC_PREFIXES = frozenset({\"model.converged.\"})\n"
        "EVENT_NAMES = frozenset({\"query.received\"})\n"
        "EVENT_PREFIXES = frozenset()\n"
    )

    def _tree(self, user_body):
        return {
            "obs/config.py": OBS_CONFIG,
            "obs/names.py": self.REGISTRY,
            "user.py": user_body,
        }

    def test_fires_on_unregistered_span_name(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "from repro.obs.config import span\n\n"
            "def fit(x):\n"
            "    with span(\"model.train\"):\n"
            "        return x\n"
        ), select=["R11"])
        assert rules_of(report) == ["R11"]
        assert "model.train" in report.violations[0].message

    def test_silent_on_registered_names(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "from repro.obs.config import record_counter, span\n\n"
            "def fit(x):\n"
            "    with span(\"model.fit\"):\n"
            "        record_counter(\"model.fits\")\n"
            "    return x\n"
        ), select=["R11"])
        assert report.ok

    def test_fstring_with_registered_prefix_ok(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "from repro.obs.config import record_counter\n\n"
            "def fit(reason):\n"
            "    record_counter(f\"model.converged.{reason}\")\n"
        ), select=["R11"])
        assert report.ok

    def test_fstring_with_unregistered_prefix_fires(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "from repro.obs.config import record_counter\n\n"
            "def fit(reason):\n"
            "    record_counter(f\"model.stopped.{reason}\")\n"
        ), select=["R11"])
        assert rules_of(report) == ["R11"]
        assert "model.stopped." in report.violations[0].message

    def test_fires_on_unregistered_event_name(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "from repro.obs.config import record_event\n\n"
            "def fit(x):\n"
            "    record_event(\"query.mystery\", key=x)\n"
        ), select=["R11"])
        assert rules_of(report) == ["R11"]
        assert "query.mystery" in report.violations[0].message

    def test_silent_on_registered_event_and_timer_names(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "from repro.obs.config import record_event, time_histogram\n\n"
            "def fit(x):\n"
            "    with time_histogram(\"model.latency_s\"):\n"
            "        record_event(\"query.received\", key=x)\n"
            "    return x\n"
        ), select=["R11"])
        assert report.ok

    def test_fires_on_unregistered_timer_name(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "from repro.obs.config import time_histogram\n\n"
            "def fit(x):\n"
            "    with time_histogram(\"model.wall_s\"):\n"
            "        return x\n"
        ), select=["R11"])
        assert rules_of(report) == ["R11"]
        assert "model.wall_s" in report.violations[0].message

    def test_fully_dynamic_name_fires(self, tmp_path):
        report = lint(tmp_path, self._tree(
            "from repro.obs.config import record_counter\n\n"
            "def fit(name):\n"
            "    record_counter(name)\n"
        ), select=["R11"])
        assert rules_of(report) == ["R11"]
        assert "dynamic" in report.violations[0].message

    def test_silent_without_registry_module(self, tmp_path):
        report = lint(tmp_path, {
            "obs/config.py": OBS_CONFIG,
            "user.py": "from repro.obs.config import span\n\n"
                       "def fit(x):\n"
                       "    with span(\"anything.goes\"):\n"
                       "        return x\n",
        }, select=["R11"])
        assert report.ok


# ----------------------------------------------------------------------
# R12 — exception flow out of the public API
# ----------------------------------------------------------------------


class TestR12:
    def test_fires_on_direct_builtin_leak(self, tmp_path):
        report = lint(tmp_path, {
            "api.py": "__all__ = [\"run\"]\n\n"
                      "def run(key):\n"
                      "    raise KeyError(key)\n",
        }, select=["R12"])
        assert rules_of(report) == ["R12"]
        assert "KeyError" in report.violations[0].message

    def test_fires_transitively_and_names_origin(self, tmp_path):
        report = lint(tmp_path, {
            "api.py": "from repro.impl import helper\n\n"
                      "__all__ = [\"run\"]\n\n"
                      "def run(x):\n"
                      "    return helper(x)\n",
            "impl.py": "def helper(x):\n"
                       "    raise ValueError(x)\n",
        }, select=["R12"])
        assert rules_of(report) == ["R12"]
        violation = report.violations[0]
        assert violation.path.endswith("api.py")
        assert "impl.py:2" in violation.message

    def test_silent_on_repro_error_subclass(self, tmp_path):
        report = lint(tmp_path, {
            "errors.py": ERRORS,
            "api.py": "from repro.errors import ValidationError\n\n"
                      "__all__ = [\"run\"]\n\n"
                      "def run(x):\n"
                      "    raise ValidationError(x)\n",
        }, select=["R12"])
        assert report.ok

    def test_silent_when_caught_on_the_way_out(self, tmp_path):
        report = lint(tmp_path, {
            "errors.py": ERRORS,
            "api.py": "from repro.errors import ValidationError\n"
                      "from repro.impl import helper\n\n"
                      "__all__ = [\"run\"]\n\n"
                      "def run(x):\n"
                      "    try:\n"
                      "        return helper(x)\n"
                      "    except ValueError as exc:\n"
                      "        raise ValidationError(str(exc))\n",
            "impl.py": "def helper(x):\n"
                       "    raise ValueError(x)\n",
        }, select=["R12"])
        assert report.ok

    def test_public_method_of_exported_class_checked(self, tmp_path):
        report = lint(tmp_path, {
            "api.py": "__all__ = [\"Model\"]\n\n"
                      "class Model:\n"
                      "    def fit(self, x):\n"
                      "        raise RuntimeError(\"nope\")\n",
        }, select=["R12"])
        assert rules_of(report) == ["R12"]
        assert "Model.fit" in report.violations[0].message

    def test_not_implemented_error_allowed(self, tmp_path):
        report = lint(tmp_path, {
            "api.py": "__all__ = [\"run\"]\n\n"
                      "def run(x):\n"
                      "    raise NotImplementedError\n",
        }, select=["R12"])
        assert report.ok


# ----------------------------------------------------------------------
# CLI: --strict
# ----------------------------------------------------------------------


class TestCli:
    BAD = {
        "parallel/store.py":
            "__all__ = [\"save\"]\n\n"
            "def save(path, text):\n"
            "    with open(path, \"w\") as handle:\n"
            "        handle.write(text)\n",
    }

    def test_strict_flag_enables_graph_rules(self, tmp_path, capsys):
        write_tree(tmp_path, self.BAD)
        assert lint_main([str(tmp_path), "--select", "R3"]) == 0
        assert lint_main([str(tmp_path), "--select", "R3", "--strict"]) == 1
        assert "R8" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Determinism: two analyzer processes, byte-identical JSON
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_repo_strict_reports_are_byte_identical(self):
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        runs = [
            subprocess.run(
                [sys.executable, "-m", "repro.lint", str(src),
                 "--strict", "--format", "json"],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": str(seed),
                     "PYTHONPATH": str(src.parent),
                     "PATH": "/usr/bin:/bin"},
            )
            for seed in (0, 1)
        ]
        assert runs[0].returncode == 0, runs[0].stdout + runs[0].stderr
        assert runs[1].returncode == 0, runs[1].stdout + runs[1].stderr
        assert runs[0].stdout == runs[1].stdout
        payload = json.loads(runs[0].stdout)
        assert payload["ok"] is True
