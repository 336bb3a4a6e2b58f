"""Exporters: the stable ``repro.obs/v3`` JSON schema and text tables.

:func:`collect_payload` snapshots one :class:`~repro.obs.config.ObsState`
into a plain dict with a fixed key set (see docs/OBSERVABILITY.md for the
full schema); :func:`to_json` serializes it with sorted keys so runs with an
injected :class:`~repro.obs.clock.ManualClock` are byte-for-byte
reproducible.  The same payload shape is what ``BENCH_*.json`` benchmark
artifacts embed under their ``"telemetry"`` key, and what
``benchmarks/conftest.py`` dumps to ``benchmarks/_cache/``.

v2 extended v1 with exact quantiles (``p50/p95/p99`` per stage and per
histogram), the provenance event log (``"events"`` / ``"events_dropped"``)
and optional resource samples (``"resources"``).  v3 drops the
``"resources"`` key and keeps every other v2 key unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.config import ObsState, current_state

__all__ = [
    "SCHEMA_VERSION",
    "collect_payload",
    "to_json",
    "write_json",
    "format_stage_table",
]

#: Version tag embedded in every exported payload.
SCHEMA_VERSION = "repro.obs/v3"


def collect_payload(state: Optional[ObsState] = None,
                    meta: Optional[Mapping[str, Any]] = None,
                    ) -> Dict[str, Any]:
    """Snapshot ``state`` (default: the active one) into the v3 schema.

    Parameters
    ----------
    state:
        The observability session to export.
    meta:
        Free-form run description merged under the ``"meta"`` key
        (configuration, dataset sizes, accuracy numbers...).
    """
    state = state if state is not None else current_state()
    metrics = state.registry.to_dict()
    # The "samples" entries exist for MetricsRegistry.merge; the export
    # keeps the summary view only.
    histograms = {
        name: {k: v for k, v in summary.items() if k != "samples"}
        for name, summary in metrics["histograms"].items()
    }
    payload: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "stages": {name: stat.to_dict()
                   for name, stat in sorted(state.collector.stages().items())},
        "spans": [record.to_dict() for record in state.collector.records()],
        "spans_dropped": state.collector.dropped,
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "histograms": histograms,
        "series": metrics["series"],
        "events": state.events.to_dicts(),
        "events_dropped": state.events.dropped,
    }
    payload["meta"] = dict(meta) if meta else {}
    return payload


def to_json(payload: Mapping[str, Any], indent: int = 2) -> str:
    """Serialize a payload deterministically (sorted keys)."""
    return json.dumps(payload, indent=indent, sort_keys=True)


def write_json(path: Union[str, Path], payload: Mapping[str, Any]) -> Path:
    """Write a payload to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.write_text(to_json(payload) + "\n", encoding="utf-8")
    return path


def _format_row(cells: List[str], widths: List[int]) -> str:
    parts = [cells[0].ljust(widths[0])]
    parts += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
    return "  ".join(parts).rstrip()


def format_stage_table(stages: Mapping[str, Mapping[str, Any]],
                       total_s: Optional[float] = None,
                       spans_dropped: int = 0) -> str:
    """Human-readable per-stage breakdown of a payload's ``"stages"`` map.

    Columns: stage name, calls, total/mean milliseconds, the exact
    p50/p95/p99 milliseconds, throughput (calls per second of
    stage time) and share of ``total_s``.  When ``total_s`` is not given,
    the widest stage's total is used, so nested stages read as fractions of
    the outermost one.  A nonzero ``spans_dropped`` adds a footer warning —
    aggregate rows above are exact either way, but individual span records
    beyond the ring-buffer capacity were not retained.
    """
    if not stages:
        return "(no stages recorded)"
    if total_s is None:
        total_s = max(float(s["total_s"]) for s in stages.values())
    header = ["stage", "calls", "total ms", "mean ms",
              "p50 ms", "p95 ms", "p99 ms", "calls/s", "share"]
    rows: List[List[str]] = []
    ordered = sorted(stages.items(), key=lambda kv: -float(kv[1]["total_s"]))
    for name, stat in ordered:
        total = float(stat["total_s"])
        calls = int(stat["calls"])
        rate = calls / total if total > 0 else 0.0
        share = 100.0 * total / total_s if total_s > 0 else 0.0
        rows.append([
            name,
            str(calls),
            f"{1000.0 * total:.2f}",
            f"{1000.0 * float(stat['mean_s']):.3f}",
            f"{1000.0 * float(stat.get('p50_s', 0.0)):.3f}",
            f"{1000.0 * float(stat.get('p95_s', 0.0)):.3f}",
            f"{1000.0 * float(stat.get('p99_s', 0.0)):.3f}",
            f"{rate:.0f}" if rate else "-",
            f"{share:.1f} %",
        ])
    widths = [max(len(header[i]), max(len(r[i]) for r in rows))
              for i in range(len(header))]
    lines = [_format_row(header, widths),
             _format_row(["-" * w for w in widths], widths)]
    lines += [_format_row(r, widths) for r in rows]
    if spans_dropped:
        lines.append(
            f"warning: {spans_dropped} span records dropped (ring buffer "
            f"full); aggregates above are exact — raise --max-spans to "
            f"retain individual spans"
        )
    return "\n".join(lines)
