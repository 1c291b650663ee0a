"""Exception hierarchy for the EarSonar reproduction.

All library-specific failures derive from :class:`EarSonarError` so that
callers can catch a single base class at the application boundary while
still being able to discriminate specific failure modes.
"""

from __future__ import annotations


class EarSonarError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(EarSonarError):
    """A configuration value is out of range or internally inconsistent.

    Raised eagerly at object-construction time (e.g. a chirp whose band
    exceeds the Nyquist frequency, a filter with a non-positive order)
    so that invalid setups fail before any signal is processed.
    """


class SignalProcessingError(EarSonarError):
    """A signal-processing stage could not produce a result.

    Examples: event detection on an empty array, segmentation when no
    candidate echo satisfies the physical distance prior.
    """


class NoEchoFoundError(SignalProcessingError):
    """No eardrum echo could be located in a recording.

    This is an expected runtime condition (bad earphone seal, extreme
    noise) that callers of the screening API should handle gracefully.
    """


class InvalidWaveformError(SignalProcessingError):
    """A waveform contains samples no DSP stage can process.

    Raised when NaN/Inf samples (a glitching ADC, a corrupted file) or
    an empty buffer reach the pipeline, *before* they can poison the
    filters and propagate garbage features to clustering.  Expected in
    deployment — the batch runtime quarantines it like any other
    acquisition failure.
    """


class QualityRejectedError(SignalProcessingError):
    """The signal-quality gate refused a recording before the DSP ran.

    The message carries the :mod:`repro.quality` reason codes (e.g.
    ``clipping; dropout``), so a quarantine entry records *why* the
    capture must be re-measured, not just that it failed.
    """


class ModelError(EarSonarError):
    """A learning component was used incorrectly.

    Examples: predicting with an unfitted model, fitting k-means with
    more clusters than samples.
    """


class NotFittedError(ModelError):
    """A model's ``predict``/``transform`` was called before ``fit``."""


class SimulationError(EarSonarError):
    """The virtual clinic could not generate a requested scenario."""


class CacheCorruptionError(EarSonarError):
    """A persisted cache entry failed validation on load.

    Covers truncated/garbled ``.npz`` payloads, checksum mismatches,
    and entries written under a different schema or config
    fingerprint.  The cache itself treats this as a miss (evicting the
    bad file); the class exists so the disk tier can signal the
    condition internally with a typed error instead of leaking
    ``BadZipFile``/``KeyError`` to callers.
    """


class ExecutionError(EarSonarError):
    """Base class for batch-runtime execution failures.

    These are *infrastructure* faults (a worker died, a deadline
    passed, a chaos test injected a fault) as opposed to the per-signal
    :class:`SignalProcessingError` family; the executor quarantines
    the recordings of the chunk that hit one, rather than crashing a
    batch.
    """


class TaskTimeoutError(ExecutionError):
    """A dispatched chunk missed its per-task deadline."""


class WorkerCrashError(ExecutionError):
    """A pool worker died mid-chunk (segfault, OOM-kill, ``os._exit``)."""


class InjectedFaultError(ExecutionError):
    """A deliberate failure raised by the chaos fault-injection hook."""


class ServiceError(EarSonarError):
    """Base class for online-serving (:mod:`repro.serve`) failures.

    Distinct from :class:`ExecutionError`: execution errors happen to
    work that was *accepted* (the executor quarantines them), while
    service errors describe the front door — requests that were never
    admitted, or a service used outside its lifecycle.
    """


class AdmissionRejected(ServiceError):
    """The service refused a request at the front door.

    Carries machine-readable backpressure metadata so callers can implement
    polite retry:

    - ``reason`` — ``"queue_full"``: the bounded request queue is at
      capacity.  A stopped service raises :class:`ServiceStoppedError`
      instead;
    - ``retry_after_s`` — the earliest time, in seconds, at which a
      retry has a chance of being admitted.
    """

    def __init__(
        self,
        message: str = "request rejected by admission control",
        *,
        reason: str = "queue_full",
        retry_after_s: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = float(retry_after_s)


class ServiceStoppedError(ServiceError):
    """An operation was attempted on a service that is not running.

    Raised by ``submit`` before ``start`` or after ``stop`` — distinct
    from :class:`AdmissionRejected`, which describes backpressure on a
    *running* service.
    """
