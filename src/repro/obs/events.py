"""Per-query provenance: structured events with correlation ids.

Spans answer "where does time go?"; events answer "what happened to *this*
query?".  Every classification request mints a correlation id (``q000001``,
``q000002``, ... — a deterministic counter, never a UUID, so exports stay
byte-identical under an injected clock and lint rule R9 determinism holds)
and threads it through featurization, retrieval and degradation via a
thread-local scope: any :func:`repro.obs.config.record_event` call made
while the scope is open is stamped with the id automatically, without the
pipeline passing it around explicitly.

The :class:`EventLog` is the append-only, bounded, thread-safe sink.
Events carry an injected-clock timestamp and a monotonically increasing
sequence number; overflow beyond ``max_events`` is counted (never silent)
in :attr:`EventLog.dropped`, mirroring the span ring buffer.  Export is
either embedded in the ``repro.obs/v3`` payload (``"events"`` key) or a
standalone JSONL stream via :func:`write_events_jsonl` — one JSON object
per line, the shape ingestion pipelines expect.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.clock import Clock, MonotonicClock

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "Event",
    "EventLog",
    "current_query_id",
    "pop_query_id",
    "push_query_id",
    "write_events_jsonl",
]

#: Default bound on retained events per observability session.
DEFAULT_MAX_EVENTS = 100_000

#: Thread-local holder for the active correlation id.
_SCOPE = threading.local()


def current_query_id() -> Optional[str]:
    """The correlation id of the enclosing query scope, or ``None``."""
    stack = getattr(_SCOPE, "stack", None)
    return stack[-1] if stack else None


def push_query_id(query_id: str) -> None:
    """Open a correlation scope on this thread (pair with pop_query_id).

    Prefer :func:`repro.obs.config.query_scope`, which pairs the two and
    mints an id when none is active.
    """
    stack = getattr(_SCOPE, "stack", None)
    if stack is None:
        stack = []
        _SCOPE.stack = stack
    stack.append(query_id)


def pop_query_id() -> None:
    """Close the innermost correlation scope on this thread (no-op empty)."""
    stack = getattr(_SCOPE, "stack", None)
    if stack:
        stack.pop()


@dataclass(frozen=True)
class Event:
    """One structured provenance event.

    Attributes
    ----------
    seq:
        Per-session monotonically increasing sequence number (1-based).
    ts:
        Clock reading at emission (injected clock; see R6 in LINTING.md).
    name:
        Dotted event name from the ``repro.obs.names`` registry.
    query_id:
        Correlation id of the enclosing query scope, ``None`` outside one
        (e.g. fit-time events).
    attrs:
        Free-form JSON-safe attributes.
    """

    seq: int
    ts: float
    name: str
    query_id: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (stable key set)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "name": self.name,
            "query_id": self.query_id,
            "attrs": dict(self.attrs),
        }


class EventLog:
    """Thread-safe, bounded, append-only sink for provenance events.

    Parameters
    ----------
    clock:
        Time source for event timestamps (injected for determinism).
    max_events:
        Retention bound; events beyond it are dropped *and counted* in
        :attr:`dropped` so loss is never silent.
    """

    def __init__(self, clock: Optional[Clock] = None,
                 max_events: int = DEFAULT_MAX_EVENTS):
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._lock = threading.Lock()
        self._events: List[Event] = []
        self._seq = 0
        self._queries = 0
        self._dropped = 0
        self.max_events = max_events

    def mint_query_id(self) -> str:
        """A fresh correlation id (``q000001``, ... — deterministic)."""
        with self._lock:
            self._queries += 1
            return f"q{self._queries:06d}"

    def emit(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Append one event stamped with the active query scope's id."""
        ts = self._clock.now()
        with self._lock:
            self._seq += 1
            if len(self._events) >= self.max_events:
                self._dropped += 1
                return
            self._events.append(Event(
                seq=self._seq,
                ts=ts,
                name=name,
                query_id=current_query_id(),
                attrs=dict(attrs) if attrs else {},
            ))

    def records(self) -> Tuple[Event, ...]:
        """All retained events in emission (sequence) order."""
        with self._lock:
            return tuple(self._events)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-friendly event list in emission order."""
        return [event.to_dict() for event in self.records()]

    @property
    def dropped(self) -> int:
        """Events discarded because the log was full."""
        return self._dropped

    @property
    def n_queries(self) -> int:
        """Correlation ids minted so far."""
        return self._queries

    def __len__(self) -> int:
        return len(self._events)

    def reset(self) -> None:
        """Drop all events and restart the sequence/query counters."""
        with self._lock:
            self._events.clear()
            self._seq = 0
            self._queries = 0
            self._dropped = 0


def write_events_jsonl(path: Union[str, Path], log: EventLog) -> Path:
    """Write an event log as JSONL (one sorted-key object per line)."""
    path = Path(path)
    lines = [json.dumps(event, sort_keys=True) for event in log.to_dicts()]
    path.write_text("\n".join(lines) + ("\n" if lines else ""),
                    encoding="utf-8")
    return path
