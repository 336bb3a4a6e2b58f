"""Benchmark run ledger: append-only JSONL history + regression gating.

A profile run produces one :mod:`repro.obs.export` payload — a snapshot
with no memory.  The ledger gives runs a history: each ``repro-motions
bench run`` appends one JSON line (git sha, configuration fingerprint,
per-stage timings with exact p50/p95/p99) to an append-only file, and
``repro-motions bench check`` compares the newest run against the runs
before it at the same fingerprint.

The regression check is noise-aware.  Wall-clock timings jitter, so a
plain "slower than last time" gate flaps.  Instead, for every stage the
baseline is the **median of the last k runs** at the same fingerprint, the
spread is the **median absolute deviation** (MAD, scaled by 1.4826 to
estimate sigma for normal noise), and the current run regresses only when
its total exceeds

``median + max(threshold_mads * 1.4826 * MAD, min_rel_increase * median)``

— i.e. it must clear both the noise floor measured from history *and* a
minimum relative slowdown.  Stages whose baseline median is below
``min_total_s`` are ignored (microsecond stages are all jitter).  An
unchanged re-run therefore passes, while an injected 2x slowdown is
flagged (the regression tests pin both).

Corrupt or truncated ledger lines (e.g. a run killed mid-append) are
skipped on read, never fatal: a telemetry file must not take down the
build that writes it.

This module lives inside :mod:`repro.obs`, the package exempt from the
R6/R9 wall-clock lint rules; timestamps can also be injected for
deterministic tests.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

__all__ = [
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER_PATH",
    "Ledger",
    "check_regression",
    "config_fingerprint",
    "format_regressions",
    "git_sha",
    "record_from_payload",
]

#: Version tag embedded in every ledger record.
LEDGER_SCHEMA = "repro.obs.ledger/v1"

#: Where ``repro-motions bench`` reads/writes unless told otherwise
#: (shared with the pytest-benchmark artifact cache).
DEFAULT_LEDGER_PATH = "benchmarks/_cache/ledger.jsonl"

#: Meta keys excluded from the configuration fingerprint: run *outputs*
#: and environment-dependent values, not configuration.
_FINGERPRINT_EXCLUDE = frozenset({
    "misclassification_pct",
    "feature_cache",
    "cache_dir",
    "n_train",
    "n_queries",
})


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """Stable short hash of a run configuration.

    Canonical-JSON (sorted keys) SHA-256, truncated to 12 hex chars.  Keys
    in ``_FINGERPRINT_EXCLUDE`` — results and host-local paths — are
    dropped first, so two runs of the same configuration fingerprint
    identically regardless of their measured outputs.
    """
    reduced = {key: value for key, value in config.items()
               if key not in _FINGERPRINT_EXCLUDE}
    canonical = json.dumps(reduced, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def git_sha(cwd: Optional[Union[str, Path]] = None) -> str:
    """Short git commit sha of ``cwd`` (default: process cwd).

    Returns ``"unknown"`` outside a git checkout or when git is missing —
    the ledger must work in exported tarballs too.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


#: Per-stage keys copied from a payload into a ledger record.
_STAGE_KEYS = ("calls", "total_s", "mean_s", "min_s", "max_s",
               "p50_s", "p95_s", "p99_s", "errors")


def record_from_payload(
    payload: Mapping[str, Any],
    label: str = "profile",
    sha: Optional[str] = None,
    fingerprint: Optional[str] = None,
    ts: Optional[float] = None,
) -> Dict[str, Any]:
    """Build one ledger record from a ``repro.obs/v2`` payload.

    Parameters
    ----------
    payload:
        The exported telemetry payload (``collect_payload`` shape).
    label:
        Free-form run label (``"profile"``, ``"bench"``, a scenario name).
    sha:
        Git sha to stamp; defaults to :func:`git_sha` of the cwd.
    fingerprint:
        Configuration fingerprint; defaults to
        :func:`config_fingerprint` of the payload's ``meta``.
    ts:
        Record timestamp; pass explicitly for deterministic tests, omit
        (``None``) to leave unstamped — the ledger orders by file
        position, not by time.
    """
    meta = dict(payload.get("meta", {}))
    stages = {
        name: {key: stat[key] for key in _STAGE_KEYS if key in stat}
        for name, stat in payload.get("stages", {}).items()
    }
    return {
        "schema": LEDGER_SCHEMA,
        "label": label,
        "ts": ts,
        "git_sha": sha if sha is not None else git_sha(),
        "fingerprint": (fingerprint if fingerprint is not None
                        else config_fingerprint(meta)),
        "stages": stages,
        "meta": meta,
    }


class Ledger:
    """Append-only JSONL file of benchmark run records."""

    def __init__(self, path: Union[str, Path] = DEFAULT_LEDGER_PATH):
        self.path = Path(path)

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record as a single JSON line (creates parents)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(dict(record), sort_keys=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def read(self) -> List[Dict[str, Any]]:
        """All parseable records, in append order.

        Blank, truncated or corrupt lines are skipped silently — a run
        killed mid-append must not poison every later read.
        """
        if not self.path.is_file():
            return []
        records: List[Dict[str, Any]] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "stages" in record:
                records.append(record)
        return records

    def runs(self, fingerprint: Optional[str] = None,
             label: Optional[str] = None) -> List[Dict[str, Any]]:
        """Records filtered by fingerprint and/or label, in append order."""
        return [
            record for record in self.read()
            if (fingerprint is None or record.get("fingerprint") == fingerprint)
            and (label is None or record.get("label") == label)
        ]


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def check_regression(
    baseline: List[Mapping[str, Any]],
    current: Mapping[str, Any],
    window: int = 5,
    threshold_mads: float = 4.0,
    min_rel_increase: float = 0.25,
    min_total_s: float = 0.005,
) -> List[Dict[str, Any]]:
    """Compare ``current`` against the median-of-k baseline per stage.

    Parameters
    ----------
    baseline:
        Prior ledger records at the same fingerprint (append order; only
        the last ``window`` are used).
    current:
        The record under test.
    window:
        Number of most-recent baseline runs forming the median/MAD.
    threshold_mads:
        Noise gate: how many scaled MADs above the median a stage total
        must sit before it can regress.
    min_rel_increase:
        Relevance gate: minimum fractional slowdown over the median
        (``0.25`` = 25 %) — guards stages whose history happens to have
        zero spread.
    min_total_s:
        Stages with a baseline median below this are skipped entirely.

    Returns
    -------
    list of dict
        One finding per regressed stage: ``stage``, ``current_s``,
        ``median_s``, ``mad_s``, ``allowed_s``, ``ratio``.  Empty when
        nothing regressed (or no baseline exists yet).
    """
    recent = list(baseline)[-window:]
    if not recent:
        return []
    findings: List[Dict[str, Any]] = []
    current_stages = current.get("stages", {})
    for name in sorted(current_stages):
        history = [
            float(record["stages"][name]["total_s"])
            for record in recent
            if name in record.get("stages", {})
        ]
        if not history:
            continue  # new stage: nothing to regress against
        med = _median(history)
        if med < min_total_s:
            continue
        mad = _median([abs(value - med) for value in history])
        allowed = med + max(threshold_mads * 1.4826 * mad,
                            min_rel_increase * med)
        now = float(current_stages[name]["total_s"])
        if now > allowed:
            findings.append({
                "stage": name,
                "current_s": now,
                "median_s": med,
                "mad_s": mad,
                "allowed_s": allowed,
                "ratio": now / med if med > 0 else float("inf"),
            })
    findings.sort(key=lambda f: -f["ratio"])
    return findings


def format_regressions(findings: List[Mapping[str, Any]]) -> str:
    """Human-readable report of :func:`check_regression` findings."""
    if not findings:
        return "no regressions detected"
    lines = [f"{len(findings)} stage(s) regressed:"]
    for finding in findings:
        lines.append(
            f"  {finding['stage']}: {1000 * finding['current_s']:.2f} ms "
            f"vs median {1000 * finding['median_s']:.2f} ms "
            f"(allowed {1000 * finding['allowed_s']:.2f} ms, "
            f"{finding['ratio']:.2f}x)"
        )
    return "\n".join(lines)
