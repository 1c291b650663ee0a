"""Unit tests for the structured JSONL event log."""

from __future__ import annotations

from repro.obs import (
    NULL_EVENT_LOG,
    EventLevel,
    EventLog,
    LogEvent,
    current_event_log,
    use_event_log,
)


class TestEmission:
    def test_events_accumulate_with_sequential_seq(self):
        log = EventLog()
        log.emit("batch.started", recordings=4)
        log.emit("batch.finished", ok=3, failed=1)
        assert [e.seq for e in log.events] == [0, 1]
        assert [e.name for e in log.events] == ["batch.started", "batch.finished"]
        assert log.events[0].fields == {"recordings": 4}

    def test_default_level_is_info(self):
        log = EventLog()
        log.emit("batch.started")
        assert log.events[0].level == "info"

    def test_min_level_filters_at_emission(self):
        log = EventLog(min_level=EventLevel.WARNING)
        log.emit("batch.started")  # INFO, dropped
        log.emit("recording.quarantined", level=EventLevel.ERROR)
        assert [e.name for e in log.events] == ["recording.quarantined"]
        assert log.events[0].level == "error"
        # seq counts recorded events only, so the log stays dense.
        assert log.events[0].seq == 0

    def test_elapsed_ms_is_monotone(self):
        log = EventLog()
        log.emit("batch.started")
        log.emit("batch.finished")
        assert log.events[1].elapsed_ms >= log.events[0].elapsed_ms >= 0.0


def _rounded(events):
    """Events with ``elapsed_ms`` at serialized (3-decimal) precision."""
    return [
        LogEvent(e.seq, e.level, e.name, round(e.elapsed_ms, 3), dict(e.fields))
        for e in events
    ]


class TestJsonlRoundTrip:
    def test_text_round_trip(self):
        log = EventLog()
        log.emit("recording.quarantined", level=EventLevel.WARNING,
                 index=3, participant="P001", error_type="NoEchoFoundError")
        log.emit("batch.finished", ok=0, failed=1)
        parsed = EventLog.read_jsonl(log.to_jsonl())
        assert parsed == _rounded(log.events)
        assert parsed[0].fields["error_type"] == "NoEchoFoundError"

    def test_streaming_file_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "events.jsonl"
        log = EventLog(path=path)
        log.emit("batch.started", recordings=2)
        # Flushed immediately: readable before close (crash resilience).
        assert len(EventLog.read_jsonl(path)) == 1
        log.emit("batch.finished", ok=2, failed=0)
        log.close()
        parsed = EventLog.read_jsonl(path)
        assert parsed == _rounded(log.events)
        assert [e.name for e in parsed] == ["batch.started", "batch.finished"]

    def test_close_is_idempotent_and_keeps_memory_log(self):
        log = EventLog()
        log.emit("batch.started")
        log.close()
        log.close()
        assert len(log.events) == 1

    def test_log_event_dict_round_trip(self):
        event = LogEvent(
            seq=2, level="warning", name="executor.serial_fallback",
            elapsed_ms=12.5, fields={"reason": "daemon"},
        )
        clone = LogEvent.from_dict(event.to_dict())
        assert clone == event


class TestAmbientLog:
    def test_default_is_the_null_log(self):
        assert current_event_log() is NULL_EVENT_LOG
        assert current_event_log().enabled is False

    def test_use_event_log_scopes_the_ambient(self):
        log = EventLog()
        with use_event_log(log):
            current_event_log().emit("batch.started")
        assert current_event_log() is NULL_EVENT_LOG
        assert [e.name for e in log.events] == ["batch.started"]

    def test_null_log_discards_everything(self):
        NULL_EVENT_LOG.emit("batch.started", level=EventLevel.ERROR, recordings=1)
        NULL_EVENT_LOG.close()
        assert NULL_EVENT_LOG.events == ()
