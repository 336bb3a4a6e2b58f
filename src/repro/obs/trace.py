"""Nestable tracing spans feeding a thread-safe in-process collector.

A :class:`Span` is a context manager; entering it pushes it on the current
thread's span stack (establishing parent/child structure), exiting records a
:class:`SpanRecord` with wall time, attributes and — when the body raised —
the exception type.  Spans always close, even on exceptions, and the
exception propagates unchanged.

The collector keeps two views of the data:

* exact per-name aggregates (:class:`StageStat`: every duration, 8 B each,
  and the error count), maintained for *every* finished span regardless of
  ``max_spans`` — the per-stage breakdown is never sampled;
* individual :class:`SpanRecord` entries, bounded by ``max_spans`` so an
  instrumented benchmark sweep cannot exhaust memory (overflow is counted in
  :attr:`TraceCollector.dropped`, and ``max_spans=0`` keeps aggregates only).

When observability is disabled, instrumentation receives the shared
:data:`NOOP_SPAN` singleton instead — entering, exiting and ``set`` are
no-ops with no allocation, which is what keeps the disabled fast path free.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import summarize

__all__ = [
    "SpanRecord",
    "StageStat",
    "Span",
    "NoOpSpan",
    "NOOP_SPAN",
    "TraceCollector",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        Dotted stage name (``"fcm.iterate"``; see docs/OBSERVABILITY.md).
    span_id / parent_id:
        Unique id and the enclosing span's id (None at the root).
    depth:
        Nesting depth (0 for root spans).
    start / end:
        Clock readings at enter/exit.
    attrs:
        Custom attributes attached via ``span(..., **attrs)`` / ``Span.set``.
    error:
        Exception type name when the body raised, else None.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        """Wall time spent inside the span, in clock seconds."""
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (stable key set)."""
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "error": self.error,
        }


class StageStat:
    """Exact per-stage aggregate over every finished span of one name.

    Keeps each duration, so :meth:`to_dict` reports exact figures (see
    :func:`~repro.obs.metrics.summarize`) — the per-stage breakdown is
    never sampled, even in ``max_spans=0`` aggregate-only sessions.
    """

    __slots__ = ("durations", "errors")

    def __init__(self) -> None:
        self.durations = array("d")
        self.errors = 0

    @property
    def calls(self) -> int:
        """Number of finished spans."""
        return len(self.durations)

    def add(self, duration: float, error: Optional[str]) -> None:
        """Fold one finished span into the aggregate."""
        self.durations.append(duration)
        if error is not None:
            self.errors += 1

    def to_dict(self) -> Dict[str, float]:
        """``{calls, total_s, mean_s, min_s, max_s, p50_s, p95_s, p99_s, errors}``."""
        summary = summarize(self.durations)
        return {
            "calls": summary["count"],
            "total_s": summary["total"],
            "mean_s": summary["mean"],
            "min_s": summary["min"],
            "max_s": summary["max"],
            "p50_s": summary["p50"],
            "p95_s": summary["p95"],
            "p99_s": summary["p99"],
            "errors": self.errors,
        }


class Span:
    """A live span; use as a context manager (see module docstring)."""

    __slots__ = ("name", "attrs", "_collector", "_start",
                 "span_id", "parent_id", "depth")

    def __init__(self, collector: "TraceCollector", name: str,
                 attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self._collector = collector
        self._start = 0.0
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.depth = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes (callable any time before exit)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        collector = self._collector
        stack = collector._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.depth = len(stack)
        self.span_id = next(collector._ids)
        stack.append(self)
        self._start = collector._clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._collector._clock.now()
        stack = self._collector._stack()
        # Pop self even if an inner span leaked (exception safety first).
        while stack and stack.pop() is not self:
            pass
        error = exc_type.__name__ if exc_type is not None else None
        self._collector._record(self, end, error)
        return False


class NoOpSpan:
    """The disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "NoOpSpan":
        """Discard attributes."""
        return self

    def __enter__(self) -> "NoOpSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Shared singleton handed out whenever observability is disabled.
NOOP_SPAN = NoOpSpan()


class TraceCollector:
    """Thread-safe sink for finished spans.

    Parameters
    ----------
    clock:
        Time source (injected for deterministic tests).
    max_spans:
        Upper bound on retained :class:`SpanRecord` entries; further spans
        still update the exact per-stage aggregates but are not stored
        individually (``0`` = aggregates only).
    """

    def __init__(self, clock: Optional[Clock] = None, max_spans: int = 100_000):
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._stages: Dict[str, StageStat] = {}
        self._dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.max_spans = max_spans

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def start(self, name: str, attrs: Dict[str, Any]) -> Span:
        """A new un-entered span bound to this collector."""
        return Span(self, name, attrs)

    def _record(self, span: Span, end: float, error: Optional[str]) -> None:
        record = SpanRecord(
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            depth=span.depth,
            start=span._start,
            end=end,
            attrs=span.attrs,
            error=error,
        )
        with self._lock:
            stat = self._stages.get(span.name)
            if stat is None:
                stat = self._stages[span.name] = StageStat()
            stat.add(record.duration, error)
            if len(self._records) < self.max_spans:
                self._records.append(record)
            else:
                self._dropped += 1

    # -- read side -----------------------------------------------------

    def records(self) -> Tuple[SpanRecord, ...]:
        """Finished spans sorted by ``(start, span_id)``."""
        with self._lock:
            return tuple(sorted(self._records,
                                key=lambda r: (r.start, r.span_id)))

    def stages(self) -> Dict[str, StageStat]:
        """Copy of the exact per-name aggregates."""
        with self._lock:
            return dict(self._stages)

    def merge_stages(self, stages: Mapping[str, StageStat]) -> None:
        """Fold another collector's :meth:`stages` into this one's aggregates.

        Each name's durations extend this collector's and its errors add,
        as if the spans had finished here; no :class:`SpanRecord` is added.
        """
        with self._lock:
            for name, other in stages.items():
                stat = self._stages.get(name)
                if stat is None:
                    stat = self._stages[name] = StageStat()
                stat.durations.extend(other.durations)
                stat.errors += other.errors

    @property
    def dropped(self) -> int:
        """Spans that exceeded ``max_spans`` (aggregates still counted them)."""
        return self._dropped

    def active_depth(self) -> int:
        """Nesting depth of the calling thread's open spans."""
        return len(self._stack())

    def reset(self) -> None:
        """Drop all finished spans and aggregates (open spans unaffected)."""
        with self._lock:
            self._records.clear()
            self._stages.clear()
            self._dropped = 0
