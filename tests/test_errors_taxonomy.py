"""Taxonomy tests for :mod:`repro.errors`.

The hierarchy is a contract: signal failures quarantine, execution
failures are the executor's recovery domain, and everything else
crashes loudly.  These tests pin the subclass relationships and prove
that every quarantinable type actually round-trips through the fault
machinery into a greppable ``FailedRecording.reason``.
"""

from __future__ import annotations

import inspect

import pytest

import repro.errors as errors_module
from repro.errors import (
    CacheCorruptionError,
    ConfigurationError,
    EarSonarError,
    ExecutionError,
    InjectedFaultError,
    InvalidWaveformError,
    ModelError,
    NoEchoFoundError,
    NotFittedError,
    QualityRejectedError,
    SignalProcessingError,
    SimulationError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runtime.faults import FailedRecording, run_quarantined

ALL_EXCEPTIONS = [
    obj
    for _, obj in inspect.getmembers(errors_module, inspect.isclass)
    if issubclass(obj, Exception)
]

#: Expected runtime conditions the batch machinery quarantines.
SIGNAL_ERRORS = [
    SignalProcessingError,
    NoEchoFoundError,
    InvalidWaveformError,
    QualityRejectedError,
]

#: Infrastructure failures handled by the executor's pool loop.
EXECUTION_ERRORS = [
    ExecutionError,
    TaskTimeoutError,
    WorkerCrashError,
    InjectedFaultError,
]


class TestHierarchy:
    def test_every_public_exception_derives_from_the_base(self):
        assert len(ALL_EXCEPTIONS) >= 14
        for exc_type in ALL_EXCEPTIONS:
            assert issubclass(exc_type, EarSonarError), exc_type

    @pytest.mark.parametrize("exc_type", SIGNAL_ERRORS)
    def test_signal_errors_are_signal_processing(self, exc_type):
        assert issubclass(exc_type, SignalProcessingError)
        assert not issubclass(exc_type, ExecutionError)

    @pytest.mark.parametrize("exc_type", EXECUTION_ERRORS)
    def test_execution_errors_are_not_signal_errors(self, exc_type):
        assert issubclass(exc_type, ExecutionError)
        assert not issubclass(exc_type, SignalProcessingError)

    def test_remaining_branches(self):
        assert issubclass(NotFittedError, ModelError)
        for exc_type in (
            ConfigurationError,
            SimulationError,
            CacheCorruptionError,
            ModelError,
        ):
            assert not issubclass(exc_type, SignalProcessingError)
            assert not issubclass(exc_type, ExecutionError)

    def test_every_exception_is_raisable_and_catchable_as_base(self):
        for exc_type in ALL_EXCEPTIONS:
            with pytest.raises(EarSonarError):
                raise exc_type("boom")


class TestQuarantineRoundTrip:
    @pytest.mark.parametrize(
        "exc_type", SIGNAL_ERRORS, ids=lambda t: t.__name__
    )
    def test_signal_errors_quarantine_into_failed_recording(
        self, exc_type, recording
    ):
        def process(_):
            raise exc_type("diagnostic detail")

        result = run_quarantined(process, recording)
        assert isinstance(result, FailedRecording)
        assert result.error_type == exc_type.__name__
        assert result.message == "diagnostic detail"
        assert result.reason == f"{exc_type.__name__}: diagnostic detail"
        assert result.participant_id == recording.participant_id
        assert result.day == recording.day
        assert result.true_state is recording.state

    @pytest.mark.parametrize(
        "exc_type",
        EXECUTION_ERRORS + [ConfigurationError, ModelError, CacheCorruptionError],
        ids=lambda t: t.__name__,
    )
    def test_other_library_errors_propagate(self, exc_type, recording):
        """Non-signal failures are not per-recording data faults."""

        def process(_):
            raise exc_type("infrastructure broke")

        with pytest.raises(exc_type):
            run_quarantined(process, recording)

    def test_programming_errors_propagate(self, recording):
        def process(_):
            raise AttributeError("typo'd attribute")

        with pytest.raises(AttributeError):
            run_quarantined(process, recording)
