"""Metrics registry: kinds, merge semantics, deterministic export."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ValidationError
from repro.obs.clock import ManualClock
from repro.obs.config import capture, record_histogram
from repro.obs.export import to_json
from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_increments_accumulate(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("c").inc(-1.0)

    def test_create_or_get_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(1.0)
        gauge.set(0.25)
        assert gauge.value == 0.25


class TestHistogram:
    def test_summary_statistics(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.summary() == {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
            "p50": 2.0, "p95": pytest.approx(2.9), "p99": pytest.approx(2.98),
        }

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_value_rejected(self, value):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValidationError):
            hist.observe(value)
        assert hist.summary()["total"] == 1.0
        with capture():
            with pytest.raises(ValidationError):
                record_histogram("h", value)

    def test_empty_summary_is_zeros(self):
        assert MetricsRegistry().histogram("h").summary() == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_timer_observes_clock_elapsed(self):
        registry = MetricsRegistry(ManualClock(auto_advance=0.5))
        with registry.timer("h"):
            pass
        summary = registry.histogram("h").summary()
        assert summary["count"] == 1
        assert summary["total"] == pytest.approx(0.5)


class TestSeries:
    def test_append_order_preserved(self):
        registry = MetricsRegistry()
        series = registry.series("s")
        for value in (3.0, 1.0, 2.0):
            series.append(value)
        assert series.values == [3.0, 1.0, 2.0]
        assert len(series) == 3


class TestMerge:
    def make_source_snapshot(self):
        src = MetricsRegistry()
        src.counter("c").inc(2.0)
        src.gauge("g").set(9.0)
        src.histogram("h").observe(1.0)
        src.histogram("h").observe(5.0)
        src.series("s").append(0.5)
        return src.to_dict()

    def test_merge_semantics(self):
        dst = MetricsRegistry()
        dst.counter("c").inc(1.0)
        dst.gauge("g").set(4.0)
        dst.histogram("h").observe(3.0)
        dst.series("s").append(0.25)
        dst.merge(self.make_source_snapshot())
        merged = dst.to_dict()
        assert merged["counters"]["c"] == 3.0  # counters add
        assert merged["gauges"]["g"] == 9.0  # gauges overwrite
        histogram = merged["histograms"]["h"]
        assert {key: histogram[key]
                for key in ("count", "total", "min", "max", "mean")} == {
            "count": 3, "total": 9.0, "min": 1.0, "max": 5.0, "mean": 3.0,
        }
        assert histogram["samples"] == [3.0, 1.0, 5.0]  # samples extend
        assert histogram["p50"] == 3.0
        assert 1.0 <= histogram["p50"] <= histogram["p95"] \
            <= histogram["p99"] <= 5.0
        assert merged["series"]["s"] == [0.25, 0.5]  # series extend

    def test_merge_into_empty_reproduces_snapshot(self):
        snapshot = self.make_source_snapshot()
        dst = MetricsRegistry()
        dst.merge(snapshot)
        assert dst.to_dict() == snapshot

    def test_merge_skips_empty_histograms(self):
        dst = MetricsRegistry()
        dst.merge({"histograms": {"h": {"count": 0, "total": 0.0,
                                        "min": 0.0, "max": 0.0, "mean": 0.0}}})
        assert dst.histogram("h").summary()["count"] == 0

    def test_summary_only_histogram_rejected(self):
        # Observations cannot be recovered from a summary, so a snapshot
        # without them is refused rather than merged approximately.
        dst = MetricsRegistry()
        with pytest.raises(ValidationError):
            dst.merge({"histograms": {"h": {"count": 2, "total": 3.0,
                                            "min": 1.0, "max": 2.0,
                                            "mean": 1.5}}})


class TestDeterministicExport:
    @staticmethod
    def run_once():
        registry = MetricsRegistry(ManualClock(auto_advance=0.125))
        registry.counter("windows").inc(96)
        registry.gauge("pruning").set(0.75)
        with registry.timer("query"):
            pass
        for value in (685.6, 612.3, 606.7):
            registry.series("fcm.objective").append(value)
        return registry.to_dict()

    def test_two_runs_byte_identical_json(self):
        assert to_json(self.run_once()) == to_json(self.run_once())

    def test_names_sorted_regardless_of_insertion_order(self):
        a = MetricsRegistry()
        a.counter("x").inc()
        a.counter("b").inc()
        assert list(a.to_dict()["counters"]) == ["b", "x"]


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000.0
