"""Global observability state and the instrumentation entry points.

One process holds one :class:`ObsState` — an enabled flag, a clock, a span
collector and a metrics registry.  :func:`configure` is the single entry
point that mutates it; everything else is a cheap read:

* :func:`span` — returns a live :class:`~repro.obs.trace.Span` when enabled,
  the shared no-op singleton otherwise (the disabled path is one attribute
  read and one truth test; no allocation);
* :func:`traced` — decorator form of :func:`span`;
* :func:`record_counter` / :func:`record_gauge` / :func:`record_series` /
  :func:`record_event` — metric/event writes that silently no-op while
  disabled;
* :func:`time_histogram` — context manager observing elapsed clock seconds
  into a histogram (the no-op singleton while disabled);
* :func:`query_scope` — per-query provenance scope: mints a correlation id
  and stamps every event emitted inside it (see :mod:`repro.obs.events`);
* :func:`capture` — context manager for profiling sessions: fresh recorders,
  enabled inside the block, disabled (data retained) after.

Observability is **off by default**; nothing is recorded until
``repro.obs.configure(enabled=True)`` (or :func:`capture`) is called.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.obs.clock import Clock, MonotonicClock
from repro.obs.events import (
    DEFAULT_MAX_EVENTS,
    EventLog,
    pop_query_id,
    push_query_id,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, TraceCollector

__all__ = [
    "DEFAULT_MAX_SPANS",
    "ObsState",
    "configure",
    "current_state",
    "is_enabled",
    "span",
    "traced",
    "record_counter",
    "record_gauge",
    "record_histogram",
    "record_series",
    "record_event",
    "time_histogram",
    "query_scope",
    "capture",
]

#: Default bound on individually retained span records.
DEFAULT_MAX_SPANS = 100_000


@dataclass
class ObsState:
    """The process-wide observability session."""

    enabled: bool
    clock: Clock
    collector: TraceCollector
    registry: MetricsRegistry
    events: EventLog
    max_spans: int = DEFAULT_MAX_SPANS
    max_events: int = DEFAULT_MAX_EVENTS


def _fresh_state(enabled: bool, clock: Optional[Clock],
                 max_spans: int, max_events: int) -> ObsState:
    resolved: Clock = clock if clock is not None else MonotonicClock()
    return ObsState(
        enabled=enabled,
        clock=resolved,
        collector=TraceCollector(resolved, max_spans=max_spans),
        registry=MetricsRegistry(resolved),
        events=EventLog(resolved, max_events=max_events),
        max_spans=max_spans,
        max_events=max_events,
    )


_LOCK = threading.Lock()
_STATE = _fresh_state(enabled=False, clock=None,
                      max_spans=DEFAULT_MAX_SPANS,
                      max_events=DEFAULT_MAX_EVENTS)


def configure(
    enabled: Optional[bool] = None,
    clock: Optional[Clock] = None,
    reset: bool = False,
    max_spans: Optional[int] = None,
    max_events: Optional[int] = None,
) -> ObsState:
    """(Re)configure the process-wide observability state.

    Parameters
    ----------
    enabled:
        Turn recording on/off; ``None`` leaves the flag unchanged.
    clock:
        Inject a time source (implies fresh, empty recorders bound to it).
    reset:
        Discard all collected spans, metrics and events, any injected clock
        and any earlier bounds: without ``clock`` the fresh recorders read a
        new :class:`~repro.obs.clock.MonotonicClock`, and without
        ``max_spans``/``max_events`` they keep :data:`DEFAULT_MAX_SPANS`
        and :data:`DEFAULT_MAX_EVENTS` records.
    max_spans:
        New bound on retained span records (implies fresh recorders).
    max_events:
        New bound on retained provenance events (implies fresh recorders).

    Returns
    -------
    ObsState
        The active state after the change (useful for later export).
    """
    global _STATE
    with _LOCK:
        prev = _STATE
        new_enabled = prev.enabled if enabled is None else bool(enabled)
        if reset or clock is not None or max_spans is not None \
                or max_events is not None:
            spans_bound = DEFAULT_MAX_SPANS if reset else prev.max_spans
            events_bound = DEFAULT_MAX_EVENTS if reset else prev.max_events
            _STATE = _fresh_state(
                enabled=new_enabled,
                clock=clock if clock is not None or reset else prev.clock,
                max_spans=max_spans if max_spans is not None else spans_bound,
                max_events=(max_events if max_events is not None
                            else events_bound),
            )
        else:
            prev.enabled = new_enabled
        return _STATE


def current_state() -> ObsState:
    """The active :class:`ObsState` (for export and inspection)."""
    return _STATE


def is_enabled() -> bool:
    """Whether observability is currently recording."""
    return _STATE.enabled


def span(name: str, **attrs: Any):
    """A span named ``name`` — live when enabled, the no-op singleton otherwise.

    Use as a context manager around the instrumented block::

        with span("fcm.iterate", iteration=i) as sp:
            ...
            sp.set(objective=objective)
    """
    state = _STATE
    if not state.enabled:
        return NOOP_SPAN
    return state.collector.start(name, attrs)


def traced(name: Optional[str] = None, **attrs: Any) -> Callable:
    """Decorator: run the wrapped function inside a span.

    ``name`` defaults to the function's qualified name.  The disabled path
    adds a flag check per call and nothing else.
    """

    def decorate(func: Callable) -> Callable:
        span_name = name if name is not None else func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any):
            state = _STATE
            if not state.enabled:
                return func(*args, **kwargs)
            with state.collector.start(span_name, dict(attrs)):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def record_counter(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    state = _STATE
    if state.enabled:
        state.registry.counter(name).inc(amount)


def record_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    state = _STATE
    if state.enabled:
        state.registry.gauge(name).set(value)


def record_histogram(name: str, value: float) -> None:
    """Observe ``value`` into histogram ``name`` (no-op while disabled).

    The direct-value companion to :func:`time_histogram` for histograms
    whose samples are not durations (membership confidence, entropy...).
    """
    state = _STATE
    if state.enabled:
        state.registry.histogram(name).observe(value)


def record_series(name: str, value: float) -> None:
    """Append ``value`` to series ``name`` (no-op while disabled)."""
    state = _STATE
    if state.enabled:
        state.registry.series(name).append(value)


def record_event(name: str, **attrs: Any) -> None:
    """Emit provenance event ``name`` (no-op while disabled).

    The event is stamped with the enclosing :func:`query_scope`'s
    correlation id, if any, and an injected-clock timestamp.
    """
    state = _STATE
    if state.enabled:
        state.events.emit(name, attrs)


def time_histogram(name: str):
    """Context manager timing its body into histogram ``name``.

    The live path delegates to :meth:`MetricsRegistry.timer`; while
    disabled the shared no-op span is returned (no allocation, no clock
    read) so hot paths pay one flag check.
    """
    state = _STATE
    if not state.enabled:
        return NOOP_SPAN
    return state.registry.timer(name)


@contextmanager
def query_scope(query_id: Optional[str] = None) -> Iterator[Optional[str]]:
    """Provenance scope for one query: mint + activate a correlation id.

    Yields the active id.  While observability is disabled the scope
    yields ``None`` and touches nothing, keeping the disabled path free.
    Nested scopes with no explicit ``query_id`` reuse the outer id, so a
    public entry point that opens a scope around the query path, which
    opens its own (``classify`` → ``MotionClassifier._query``), produces
    one trail, not two.
    """
    state = _STATE
    if not state.enabled:
        yield None
        return
    from repro.obs.events import current_query_id

    if query_id is None:
        query_id = current_query_id() or state.events.mint_query_id()
    push_query_id(query_id)
    try:
        yield query_id
    finally:
        pop_query_id()


@contextmanager
def capture(clock: Optional[Clock] = None,
            max_spans: Optional[int] = None,
            max_events: Optional[int] = None) -> Iterator[ObsState]:
    """Profiling session: fresh recorders, enabled inside, disabled after.

    The recorders read ``clock``, or a new monotonic clock when it is
    ``None``; a clock injected into an earlier session is never reused.
    They keep up to ``max_spans`` span records and ``max_events`` events,
    :data:`DEFAULT_MAX_SPANS` and :data:`DEFAULT_MAX_EVENTS` when ``None``,
    whatever bounds an earlier :func:`configure` set.  The yielded state
    retains its data after the block exits, so callers export from it::

        with capture() as state:
            model.fit(train)
        payload = collect_payload(state)
    """
    state = configure(enabled=True, clock=clock, reset=True,
                      max_spans=max_spans, max_events=max_events)
    try:
        yield state
    finally:
        configure(enabled=False)
