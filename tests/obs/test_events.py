"""Per-query provenance: EventLog, query scopes and the JSONL export."""

from __future__ import annotations

import json

import pytest

from repro.obs.clock import ManualClock
from repro.obs.config import (
    capture,
    configure,
    query_scope,
    record_event,
)
from repro.obs.events import (
    EventLog,
    current_query_id,
    write_events_jsonl,
)


@pytest.fixture(autouse=True)
def _reset_obs():
    yield
    configure(enabled=False, reset=True)


class TestEventLog:
    def test_emit_stamps_sequence_and_clock(self):
        log = EventLog(clock=ManualClock(start=10.0, auto_advance=1.0))
        log.emit("query.received", {"key": "a"})
        log.emit("query.classified")
        first, second = log.records()
        assert (first.seq, second.seq) == (1, 2)
        assert second.ts > first.ts
        assert first.attrs == {"key": "a"}
        assert second.attrs == {}

    def test_capacity_drops_are_counted(self):
        log = EventLog(clock=ManualClock(), max_events=2)
        for i in range(5):
            log.emit("query.received", {"i": i})
        assert len(log) == 2
        assert log.dropped == 3
        # Sequence numbers keep counting across drops: loss is visible.
        assert log.records()[-1].seq == 2

    def test_mint_query_id_is_a_deterministic_counter(self):
        log = EventLog(clock=ManualClock())
        assert [log.mint_query_id() for _ in range(3)] == \
            ["q000001", "q000002", "q000003"]
        assert log.n_queries == 3

    def test_reset_restarts_counters(self):
        log = EventLog(clock=ManualClock())
        log.emit("query.received")
        log.mint_query_id()
        log.reset()
        assert len(log) == 0
        assert log.mint_query_id() == "q000001"
        log.emit("query.received")
        assert log.records()[0].seq == 1


class TestQueryScope:
    def test_no_scope_outside_context(self):
        assert current_query_id() is None

    def test_scope_mints_and_pops(self):
        with capture(clock=ManualClock()):
            with query_scope() as query_id:
                assert query_id == "q000001"
                assert current_query_id() == "q000001"
            assert current_query_id() is None

    def test_nested_scope_reuses_outer_id(self):
        # classify opens a scope, then the query path it runs opens
        # another: both must share one id.
        with capture(clock=ManualClock()):
            with query_scope() as outer:
                with query_scope() as inner:
                    assert inner == outer

    def test_events_inside_scope_are_stamped(self):
        with capture(clock=ManualClock()) as state:
            with query_scope():
                record_event("query.received", key="a")
            record_event("query.received", key="b")
        stamped, unstamped = state.events.records()
        assert stamped.query_id == "q000001"
        assert unstamped.query_id is None

    def test_disabled_scope_is_noop(self):
        configure(enabled=False, reset=True)
        with query_scope() as query_id:
            assert query_id is None
        record_event("query.received")  # must not raise


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog(clock=ManualClock(start=1.0, auto_advance=0.5))
        log.emit("query.received", {"key": "a"})
        log.emit("query.classified", {"label": "walk"})
        path = write_events_jsonl(tmp_path / "events.jsonl", log)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed == log.to_dicts()

    def test_empty_log_writes_empty_file(self, tmp_path):
        path = write_events_jsonl(tmp_path / "events.jsonl",
                                  EventLog(clock=ManualClock()))
        assert path.read_text() == ""

    def test_pinned_clock_export_is_byte_identical(self, tmp_path):
        outputs = []
        for run in range(2):
            log = EventLog(clock=ManualClock(start=100.0, auto_advance=0.25))
            for i in range(4):
                log.emit("query.received", {"i": i})
            path = write_events_jsonl(tmp_path / f"events_{run}.jsonl", log)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
