"""Per-recording fault isolation for batch runs.

In a home-screening deployment some fraction of captures always fails —
bad earbud seal, a child yanking the cable, a truck outside.  The paper
treats those as re-measurement prompts, not crashes; the batch runtime
therefore quarantines them as structured :class:`FailedRecording`
entries instead of aborting the study or silently dropping rows.

Only the library's expected signal-processing failures
(:class:`~repro.errors.SignalProcessingError`, which includes
:class:`~repro.errors.NoEchoFoundError`) are quarantined; programming
errors still propagate and fail the batch loudly.

Each recording is processed once.  The DSP is deterministic, so a
second attempt at the same waveform fails the same way; a failed
capture calls for a new measurement, not a retry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SignalProcessingError
from ..simulation.effusion import MeeState

__all__ = ["FailedRecording"]


@dataclass(frozen=True)
class FailedRecording:
    """Quarantine record for one recording the pipeline could not process.

    Attributes
    ----------
    participant_id / day:
        Provenance of the failed capture, enough to schedule a
        re-measurement.
    error_type:
        Exception class name (e.g. ``"NoEchoFoundError"``).
    message:
        The exception's message.
    true_state:
        Ground-truth state if the recording carried one (simulation);
        ``None`` for field recordings.
    """

    participant_id: str
    day: float
    error_type: str
    message: str
    true_state: MeeState | None = None

    @property
    def reason(self) -> str:
        """Single-string diagnosis, e.g. ``"NoEchoFoundError: only 1 ..."``.

        The stable round-trip target for the error taxonomy: every
        quarantined exception lands here as ``type-name: message``, so
        logs and artifacts stay greppable by exception class.
        """
        return f"{self.error_type}: {self.message}"


def run_quarantined(func, recording):
    """Call ``func(recording)``, quarantining signal-processing failures.

    Returns the call's result, or a :class:`FailedRecording` when it
    raised a :class:`~repro.errors.SignalProcessingError`; every other
    exception propagates unchanged.
    """
    try:
        return func(recording)
    except SignalProcessingError as exc:
        return FailedRecording(
            participant_id=recording.participant_id,
            day=recording.day,
            error_type=type(exc).__name__,
            message=str(exc),
            true_state=getattr(recording, "state", None),
        )
