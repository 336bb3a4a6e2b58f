"""Tracing spans: nesting, exception safety, threading, the no-op path."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ValidationError
from repro.obs.clock import ManualClock, MonotonicClock
from repro.obs.config import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_MAX_SPANS,
    capture,
    configure,
    current_state,
    is_enabled,
    record_counter,
    record_event,
    span,
    traced,
)
from repro.obs.trace import NOOP_SPAN, NoOpSpan, TraceCollector


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with observability off and empty."""
    configure(enabled=False, reset=True)
    yield
    configure(enabled=False, reset=True)


def ticking_collector():
    return TraceCollector(ManualClock(auto_advance=1.0), max_spans=100)


class TestSpanNesting:
    def test_parent_child_structure(self):
        collector = ticking_collector()
        with collector.start("outer", {}):
            with collector.start("inner", {}):
                pass
        records = collector.records()
        assert [r.name for r in records] == ["outer", "inner"]
        outer = next(r for r in records if r.name == "outer")
        inner = next(r for r in records if r.name == "inner")
        assert outer.parent_id is None and outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1

    def test_sibling_spans_share_parent(self):
        collector = ticking_collector()
        with collector.start("root", {}) as root:
            with collector.start("a", {}):
                pass
            with collector.start("b", {}):
                pass
        by_name = {r.name: r for r in collector.records()}
        assert by_name["a"].parent_id == root.span_id
        assert by_name["b"].parent_id == root.span_id
        assert by_name["a"].depth == by_name["b"].depth == 1

    def test_durations_from_injected_clock(self):
        collector = ticking_collector()
        with collector.start("outer", {}):
            with collector.start("inner", {}):
                pass
        by_name = {r.name: r for r in collector.records()}
        # Ticks: outer start=0, inner start=1, inner end=2, outer end=3.
        assert by_name["inner"].duration == pytest.approx(1.0)
        assert by_name["outer"].duration == pytest.approx(3.0)

    def test_attrs_initial_and_set(self):
        collector = ticking_collector()
        with collector.start("stage", {"k": 1}) as sp:
            sp.set(result=2.5)
        (record,) = collector.records()
        assert record.attrs == {"k": 1, "result": 2.5}

    def test_stage_aggregates_exact(self):
        collector = ticking_collector()
        for _ in range(5):
            with collector.start("stage", {}):
                pass
        stat = collector.stages()["stage"]
        assert stat.calls == 5
        row = stat.to_dict()
        assert row["total_s"] == pytest.approx(5.0)
        assert row["min_s"] == row["max_s"] == pytest.approx(1.0)
        assert stat.errors == 0

    def test_merge_stages_extends_aggregates_not_records(self):
        parent, worker = ticking_collector(), TraceCollector(
            ManualClock(auto_advance=2.0), max_spans=100)
        with parent.start("stage", {}):
            pass
        with worker.start("stage", {}):
            pass
        with pytest.raises(ValidationError):
            with worker.start("other", {}):
                raise ValidationError("bad")
        parent.merge_stages(worker.stages())
        stages = parent.stages()
        assert list(stages["stage"].durations) == [1.0, 2.0]
        assert stages["other"].calls == 1
        assert stages["other"].errors == 1
        assert [r.name for r in parent.records()] == ["stage"]


class TestExceptionSafety:
    def test_exception_propagates_and_span_closes(self):
        collector = ticking_collector()
        with pytest.raises(ValidationError):
            with collector.start("boom", {}):
                raise ValidationError("bad")
        (record,) = collector.records()
        assert record.error == "ValidationError"
        assert collector.active_depth() == 0
        assert collector.stages()["boom"].errors == 1

    def test_outer_span_survives_inner_failure(self):
        collector = ticking_collector()
        with collector.start("outer", {}):
            with pytest.raises(ValidationError):
                with collector.start("inner", {}):
                    raise ValidationError("bad")
        by_name = {r.name: r for r in collector.records()}
        assert by_name["inner"].error == "ValidationError"
        assert by_name["outer"].error is None
        assert collector.active_depth() == 0

    def test_global_span_helper_is_exception_safe(self):
        configure(enabled=True, clock=ManualClock(auto_advance=1.0))
        with pytest.raises(ValidationError):
            with span("stage"):
                raise ValidationError("bad")
        state = current_state()
        assert state.collector.active_depth() == 0
        assert state.collector.stages()["stage"].errors == 1


class TestThreading:
    def test_span_stacks_are_per_thread(self):
        collector = TraceCollector(MonotonicClock(), max_spans=1000)
        errors = []

        def worker(tag):
            try:
                for _ in range(50):
                    with collector.start(f"outer.{tag}", {}):
                        with collector.start(f"inner.{tag}", {}):
                            pass
                assert collector.active_depth() == 0
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stages = collector.stages()
        for tag in range(4):
            assert stages[f"outer.{tag}"].calls == 50
            # Children recorded under the right parent, in-thread.
            inner = [r for r in collector.records()
                     if r.name == f"inner.{tag}"]
            outer_ids = {r.span_id for r in collector.records()
                         if r.name == f"outer.{tag}"}
            assert all(r.parent_id in outer_ids for r in inner)


class TestMaxSpans:
    def test_overflow_keeps_aggregates(self):
        collector = TraceCollector(ManualClock(auto_advance=1.0), max_spans=3)
        for _ in range(10):
            with collector.start("stage", {}):
                pass
        assert len(collector.records()) == 3
        assert collector.dropped == 7
        assert collector.stages()["stage"].calls == 10

    def test_zero_keeps_aggregates_only(self):
        collector = TraceCollector(ManualClock(auto_advance=1.0), max_spans=0)
        with collector.start("stage", {}):
            pass
        assert collector.records() == ()
        assert collector.dropped == 1
        assert collector.stages()["stage"].calls == 1


class TestNoOpPath:
    def test_disabled_span_is_the_shared_singleton(self):
        assert not is_enabled()
        sp = span("anything", attr=1)
        assert sp is NOOP_SPAN
        assert isinstance(sp, NoOpSpan)
        # And nothing is recorded through it.
        with sp:
            sp.set(more=2)
        assert current_state().collector.records() == ()

    def test_disabled_metrics_do_not_record(self):
        record_counter("c", 5)
        assert current_state().registry.to_dict()["counters"] == {}

    def test_enable_disable_roundtrip(self):
        assert span("x") is NOOP_SPAN
        configure(enabled=True)
        live = span("x")
        assert live is not NOOP_SPAN
        configure(enabled=False)
        assert span("x") is NOOP_SPAN

    def test_noop_overhead_smoke(self):
        """~100k disabled spans finish well under a second."""
        assert not is_enabled()
        start = time.perf_counter()
        for _ in range(100_000):
            with span("hot.loop", i=0):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


class TestTracedDecorator:
    def test_records_qualified_name_when_enabled(self):
        configure(enabled=True, clock=ManualClock(auto_advance=1.0))

        @traced()
        def add(a, b):
            return a + b

        assert add(1, 2) == 3
        stages = current_state().collector.stages()
        assert any(name.endswith("add") for name in stages)

    def test_explicit_name_and_disabled_passthrough(self):
        @traced("custom.name")
        def mul(a, b):
            return a * b

        assert mul(2, 3) == 6  # disabled: plain call, nothing recorded
        assert current_state().collector.records() == ()
        configure(enabled=True, clock=ManualClock(auto_advance=1.0))
        assert mul(2, 3) == 6
        assert "custom.name" in current_state().collector.stages()


class TestCapture:
    def test_capture_enables_inside_and_retains_after(self):
        assert not is_enabled()
        with capture(clock=ManualClock(auto_advance=1.0)) as state:
            assert is_enabled()
            with span("inside"):
                pass
        assert not is_enabled()
        assert state.collector.stages()["inside"].calls == 1

    def test_capture_without_clock_does_not_reuse_an_injected_one(self):
        with capture(clock=ManualClock(auto_advance=1.0)):
            pass
        with capture() as state:
            pass
        assert isinstance(state.clock, MonotonicClock)
        configure(clock=ManualClock())
        assert isinstance(configure(reset=True).clock, MonotonicClock)

    def test_capture_starts_from_the_default_bounds(self):
        # An aggregate-only session (max_spans=0, as the benchmarks run)
        # must not leave a later capture without span or event records.
        try:
            configure(enabled=True, max_spans=0, max_events=0)
            with capture() as state:
                with span("inside"):
                    record_event("inside.event")
            assert (state.max_spans, state.max_events) == (
                DEFAULT_MAX_SPANS, DEFAULT_MAX_EVENTS)
            assert [r.name for r in state.collector.records()] == ["inside"]
            assert [e.name for e in state.events.records()] == ["inside.event"]
            with capture(max_spans=3, max_events=2) as bounded:
                pass
            assert (bounded.max_spans, bounded.max_events) == (3, 2)
        finally:
            configure(enabled=False, reset=True)

    def test_reset_starts_from_the_default_bounds(self):
        # The fixture's reset between tests must not carry an aggregate-only
        # session's bounds into the next test.
        configure(enabled=True, max_spans=0, max_events=0)
        state = configure(reset=True)
        assert (state.max_spans, state.max_events) == (
            DEFAULT_MAX_SPANS, DEFAULT_MAX_EVENTS)
        with span("after.reset"):
            record_event("after.reset.event")
        assert [r.name for r in state.collector.records()] == ["after.reset"]
        assert [e.name for e in state.events.records()] == ["after.reset.event"]
        # Explicit bounds win over the defaults; a call without reset keeps
        # the current bounds.
        assert configure(reset=True, max_spans=3).max_spans == 3
        assert configure(enabled=False).max_spans == 3
        assert configure(max_events=2).max_spans == 3

    def test_capture_disables_even_on_error(self):
        with pytest.raises(ValidationError):
            with capture():
                raise ValidationError("bad")
        assert not is_enabled()
