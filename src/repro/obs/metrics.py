"""Metrics registry: counters, gauges, histograms and value series.

All metric types share one registry-level lock, so concurrent pipeline
threads can record safely; exports are sorted by name so two runs with the
same injected clock produce byte-identical JSON (see
:mod:`repro.obs.export` for the schema).

Metric kinds
------------
* :class:`Counter` — monotonically increasing total (windows produced,
  candidates scanned, FCM iterations...).
* :class:`Gauge` — last-write-wins scalar (pruning ratio of the latest
  query, training-window count of the latest fit...).
* :class:`Histogram` — every observation of a value (8 B each), summarised
  exactly on read by :func:`summarize` (count/total/min/max/mean and
  p50/p95/p99), with a :meth:`MetricsRegistry.timer` helper that observes
  elapsed seconds.
* :class:`Series` — an append-only list of values, used for per-iteration
  telemetry such as the FCM objective trace.
"""

from __future__ import annotations

import math
import threading
from array import array
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ValidationError
from repro.obs.clock import Clock, MonotonicClock

__all__ = ["Counter", "Gauge", "Histogram", "Series", "MetricsRegistry",
           "summarize"]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Exact ``{count, total, min, max, mean, p50, p95, p99}`` of ``values`` (zeros when empty).

    ``total`` adds the values one at a time in the order given, so it and
    ``mean`` depend on that order in the last bits; ``min``/``max`` keep
    the first of equal values.  Each quantile interpolates linearly between
    the two nearest sorted values (``numpy.percentile``'s default method, to
    within one ulp), so it does not depend on the order.
    """
    count = len(values)
    if count == 0:
        return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    total = 0.0
    for value in values:
        total += value
    ordered = sorted(values)
    quantiles = {}
    for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
        rank = q * (count - 1)
        low = int(rank)
        high = min(low + 1, count - 1)
        frac = rank - low
        quantiles[key] = ordered[low] * (1.0 - frac) + ordered[high] * frac
    return {"count": count, "total": total, "min": min(values),
            "max": max(values), "mean": total / count, **quantiles}


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Record the latest value."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """Most recently set value."""
        return self._value


class Histogram:
    """Every observation of a value, summarised exactly on read."""

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._values = array("d")
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation (must be finite)."""
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(
                f"histogram {self.name!r} cannot observe {value}"
            )
        with self._lock:
            self._values.append(value)

    def summary(self) -> Dict[str, float]:
        """:func:`summarize` of the observations so far."""
        return summarize(self._values)


class Series:
    """An append-only list of values (per-iteration telemetry)."""

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._values: List[float] = []
        self._lock = lock

    def append(self, value: float) -> None:
        """Append one value."""
        with self._lock:
            self._values.append(float(value))

    @property
    def values(self) -> List[float]:
        """A copy of the recorded values, in append order."""
        with self._lock:
            return list(self._values)

    def __len__(self) -> int:
        return len(self._values)


class _HistogramTimer:
    """Context manager observing elapsed clock seconds into a histogram."""

    __slots__ = ("_histogram", "_clock", "_start")

    def __init__(self, histogram: Histogram, clock: Clock):
        self._histogram = histogram
        self._clock = clock
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = self._clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._histogram.observe(self._clock.now() - self._start)
        return False


class MetricsRegistry:
    """Create-or-get home for all metrics of one observability session.

    Parameters
    ----------
    clock:
        Clock used by :meth:`timer`; defaults to the monotonic clock.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, Series] = {}

    # -- create-or-get accessors ---------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name, self._lock)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name, self._lock)
            return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, self._lock)
            return self._histograms[name]

    def series(self, name: str) -> Series:
        """The series called ``name`` (created on first use)."""
        with self._lock:
            if name not in self._series:
                self._series[name] = Series(name, self._lock)
            return self._series[name]

    def timer(self, name: str) -> _HistogramTimer:
        """Context manager timing its body into histogram ``name``."""
        return _HistogramTimer(self.histogram(name), self._clock)

    # -- export / merge ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic snapshot: name-sorted plain dicts per metric kind.

        Histogram entries additionally carry their observations, in order,
        under the ``"samples"`` key so :meth:`merge` can extend the stream,
        not just the summary; exporters strip it (see
        :func:`repro.obs.export.collect_payload`).
        """
        with self._lock:
            return {
                "counters": {k: self._counters[k].value
                             for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k].value
                           for k in sorted(self._gauges)},
                "histograms": {
                    k: {**self._histograms[k].summary(),
                        "samples": self._histograms[k]._values.tolist()}
                    for k in sorted(self._histograms)
                },
                "series": {k: list(self._series[k]._values)
                           for k in sorted(self._series)},
            }

    def merge(self, other: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`to_dict` snapshot into this one.

        Counters add, gauges take the incoming value, histograms extend
        their observations with the incoming ``"samples"`` (so merging
        snapshots in order gives the summary of one registry that saw every
        observation), series extend.  A histogram entry whose ``"samples"``
        do not match its ``count`` is rejected, since its observations
        cannot be recovered from a summary.  Merging is snapshot-based so
        two live registries can be merged without lock-ordering hazards.
        """
        for name, value in other.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in other.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, entry in other.get("histograms", {}).items():
            hist = self.histogram(name)
            samples = entry.get("samples", ())
            if len(samples) != entry.get("count", 0):
                raise ValidationError(
                    f"histogram {name!r} snapshot holds {len(samples)} "
                    f"samples for count {entry.get('count')}"
                )
            for value in samples:
                hist.observe(value)
        for name, values in other.get("series", {}).items():
            series = self.series(name)
            for value in values:
                series.append(value)

    def reset(self) -> None:
        """Drop every metric."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._series.clear()
