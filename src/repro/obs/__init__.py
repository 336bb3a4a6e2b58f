"""End-to-end pipeline observability: spans, metrics, deterministic export.

Zero-dependency, off-by-default telemetry for the reproduction pipeline:

* :func:`~repro.obs.config.span` / :func:`~repro.obs.config.traced` —
  nestable tracing spans feeding a thread-safe in-process collector;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, histogram
  timers and per-iteration value series;
* :func:`~repro.obs.config.configure` — the one switch
  (``repro.obs.configure(enabled=True)``); every recorder accepts an
  injected :class:`~repro.obs.clock.Clock` so tests pin exact output;
* :mod:`repro.obs.export` — the stable ``repro.obs/v3`` JSON schema and the
  per-stage text breakdown used by ``repro-motions profile``.

Layered on top of the telemetry primitives:

* :mod:`repro.obs.drift` — fit-time baseline snapshots, per-query drift
  signals, sliding-window drift detectors and the :class:`DriftMonitor`;
* :mod:`repro.obs.health` — SLO rules, alert sinks and the
  ``repro-motions health`` check (imported separately, like
  :mod:`repro.obs.profile`, because it drives the pipeline).

When disabled (the default), instrumented code receives the shared
:data:`~repro.obs.trace.NOOP_SPAN` and metric writes no-op — the hot paths
pay one flag check.  See docs/OBSERVABILITY.md for the span/metric naming
scheme and the export schema; the profiling pipeline itself lives in
:mod:`repro.obs.profile` (imported separately to keep this package free of
pipeline dependencies).
"""

from repro.obs.clock import Clock, ManualClock, MonotonicClock
from repro.obs.config import (
    DEFAULT_MAX_SPANS,
    ObsState,
    capture,
    configure,
    current_state,
    is_enabled,
    query_scope,
    record_counter,
    record_event,
    record_gauge,
    record_histogram,
    record_series,
    span,
    time_histogram,
    traced,
)
from repro.obs.drift import (
    BASELINE_SCHEMA_VERSION,
    BaselineSnapshot,
    DegradationRateDetector,
    DriftDetector,
    DriftMonitor,
    DriftReport,
    FeatureShiftDetector,
    MembershipConfidenceDetector,
    MembershipEntropyDetector,
    ObjectiveTrendDetector,
    QuerySignals,
    default_detectors,
    signals_from_query,
)
from repro.obs.events import (
    DEFAULT_MAX_EVENTS,
    Event,
    EventLog,
    current_query_id,
    write_events_jsonl,
)
from repro.obs.export import (
    SCHEMA_VERSION,
    collect_payload,
    format_stage_table,
    to_json,
    write_json,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, Series
from repro.obs.names import (
    EVENT_NAMES,
    EVENT_PREFIXES,
    METRIC_NAMES,
    METRIC_PREFIXES,
    SPAN_NAMES,
    SPAN_PREFIXES,
)
from repro.obs.trace import (
    NOOP_SPAN,
    NoOpSpan,
    Span,
    SpanRecord,
    StageStat,
    TraceCollector,
)

__all__ = [
    "Clock",
    "ManualClock",
    "MonotonicClock",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_MAX_EVENTS",
    "ObsState",
    "capture",
    "configure",
    "current_state",
    "is_enabled",
    "query_scope",
    "record_counter",
    "record_event",
    "record_gauge",
    "record_histogram",
    "record_series",
    "span",
    "time_histogram",
    "traced",
    "BASELINE_SCHEMA_VERSION",
    "BaselineSnapshot",
    "QuerySignals",
    "signals_from_query",
    "DriftReport",
    "DriftDetector",
    "MembershipConfidenceDetector",
    "MembershipEntropyDetector",
    "ObjectiveTrendDetector",
    "FeatureShiftDetector",
    "DegradationRateDetector",
    "default_detectors",
    "DriftMonitor",
    "Event",
    "EventLog",
    "current_query_id",
    "write_events_jsonl",
    "SCHEMA_VERSION",
    "collect_payload",
    "format_stage_table",
    "to_json",
    "write_json",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "EVENT_NAMES",
    "EVENT_PREFIXES",
    "METRIC_NAMES",
    "METRIC_PREFIXES",
    "SPAN_NAMES",
    "SPAN_PREFIXES",
    "NOOP_SPAN",
    "NoOpSpan",
    "Span",
    "SpanRecord",
    "StageStat",
    "TraceCollector",
]
