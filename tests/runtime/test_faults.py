"""Unit tests for per-recording fault quarantine."""

import dataclasses

import pytest

from repro.errors import NoEchoFoundError
from repro.runtime.faults import FailedRecording, run_quarantined


@dataclasses.dataclass
class _FakeRecording:
    participant_id: str = "P001"
    day: float = 3.5
    state: str = "clear"


class TestRunWithPolicy:
    """``run_quarantined``: one call, signal errors quarantined."""

    def test_success_returns_result_and_one_attempt(self):
        calls = []

        def process(recording):
            calls.append(recording)
            return "ok"

        assert run_quarantined(process, _FakeRecording()) == "ok"
        assert len(calls) == 1

    def test_quarantines_signal_failures(self):
        calls = []

        def fail(recording):
            calls.append(recording)
            raise NoEchoFoundError("only 0 of 5 events produced echoes")

        result = run_quarantined(fail, _FakeRecording())
        assert isinstance(result, FailedRecording)
        assert result.participant_id == "P001"
        assert result.day == 3.5
        assert result.error_type == "NoEchoFoundError"
        assert "0 of 5" in result.message
        assert result.true_state == "clear"
        assert len(calls) == 1  # a deterministic failure is never retried

    def test_programming_errors_propagate(self):
        def broken(recording):
            raise TypeError("not a signal problem")

        with pytest.raises(TypeError):
            run_quarantined(broken, _FakeRecording())
