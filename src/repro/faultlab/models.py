"""Seeded, fingerprintable acquisition-fault models.

Each model is a frozen dataclass describing one physical failure mode
of an at-home capture, with an ``apply(waveform, sample_rate, rng)``
method returning a *new* damaged array (inputs are never mutated).
Field metadata declares how :meth:`FaultModel.at_severity` scales the
model:

- ``{"severity": "scale"}`` — intensity fields multiply linearly with
  severity (rates, amplitudes, attenuations); severity 0 zeroes them.
- ``{"severity": "toward_one"}`` — fraction-like fields interpolate
  from the benign value 1.0 (severity 0) down to the configured value
  (severity 1), e.g. a clipping level or a kept-duration fraction.

Severity 1 therefore *is* the model's own configuration, severity 0 is
(numerically) a no-op, and values above 1 extrapolate harsher damage.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:  # circular-import-free annotation only
    from ..simulation.session import Recording

__all__ = [
    "FaultModel",
    "DropoutBursts",
    "Clipping",
    "TransientBursts",
    "SealLeak",
    "DCClockDrift",
    "Truncation",
    "NonFiniteCorruption",
    "ReverbTailFault",
    "CalibrationDriftFault",
    "fault_catalog",
    "apply_to_recording",
]


def _severity_field(default: float, mode: str) -> float:
    """Dataclass field whose value participates in severity scaling."""
    return field(default=default, metadata={"severity": mode})


@dataclass(frozen=True)
class FaultModel:
    """Base contract shared by every acquisition-fault model.

    Subclasses implement :meth:`apply`; severity scaling and
    fingerprinting come for free from the dataclass machinery.
    """

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Return a damaged copy of ``waveform`` (never mutates input)."""
        raise NotImplementedError

    def at_severity(self, severity: float) -> "FaultModel":
        """This model rescaled to ``severity`` (0 = no-op, 1 = as configured)."""
        if severity < 0.0:
            raise ConfigurationError(f"severity must be >= 0, got {severity}")
        changes = {}
        for f in fields(self):
            mode = f.metadata.get("severity")
            value = getattr(self, f.name)
            if mode == "scale":
                changes[f.name] = float(value) * severity
            elif mode == "toward_one":
                # Clamp into (0, 1]: severities beyond the point where
                # the fraction hits zero saturate at "almost nothing
                # left" instead of leaving the field's valid range.
                interpolated = 1.0 - severity * (1.0 - float(value))
                changes[f.name] = min(1.0, max(1e-3, interpolated))
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """Content hash of the model (config + class), for artifacts."""
        from ..core.config import config_fingerprint

        return config_fingerprint(self)

    @property
    def name(self) -> str:
        """Stable short name used in reports and JSON artifacts."""
        return type(self).__name__

    @staticmethod
    def _as_array(waveform: np.ndarray) -> np.ndarray:
        return np.array(waveform, dtype=float, copy=True)


@dataclass(frozen=True)
class DropoutBursts(FaultModel):
    """Sample-dropout bursts: buffers the audio stack never delivered.

    Draws a Poisson number of bursts (``rate_per_s`` expected per
    second) at uniform positions and zero-fills ``burst_ms`` of samples
    at each — the exact signature a Bluetooth/USB underrun leaves in a
    capture.
    """

    rate_per_s: float = _severity_field(8.0, "scale")
    burst_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise ConfigurationError(f"rate_per_s must be >= 0, got {self.rate_per_s}")
        if self.burst_ms <= 0:
            raise ConfigurationError(f"burst_ms must be positive, got {self.burst_ms}")

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Zero-fill seeded dropout bursts in a copy of ``waveform``."""
        out = self._as_array(waveform)
        if out.size == 0 or self.rate_per_s == 0.0:
            return out
        duration_s = out.size / sample_rate
        count = int(rng.poisson(self.rate_per_s * duration_s))
        if count == 0:
            return out
        burst = max(1, int(round(self.burst_ms * 1e-3 * sample_rate)))
        starts = rng.integers(0, out.size, size=count)
        for start in starts:
            out[start : start + burst] = 0.0
        return out


@dataclass(frozen=True)
class Clipping(FaultModel):
    """ADC clipping/saturation at a fraction of the waveform's peak.

    ``level`` is the saturation ceiling relative to the clean peak
    amplitude: 1.0 leaves the signal untouched, 0.5 flattens everything
    above half the peak into the hard rails a saturated converter
    produces.
    """

    level: float = _severity_field(0.5, "toward_one")

    def __post_init__(self) -> None:
        if not 0.0 < self.level <= 1.0:
            raise ConfigurationError(f"level must be in (0, 1], got {self.level}")

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Clip a copy of ``waveform`` at ``level`` times its own peak."""
        out = self._as_array(waveform)
        if out.size == 0 or self.level >= 1.0:
            return out
        peak = float(np.max(np.abs(out))) if out.size else 0.0
        if peak <= 0.0:
            return out
        ceiling = self.level * peak
        return np.clip(out, -ceiling, ceiling)


@dataclass(frozen=True)
class TransientBursts(FaultModel):
    """Transient ambient bursts: door slams, toy clatter, speech peaks.

    Adds Hann-enveloped white-noise bursts whose amplitude is
    ``amplitude`` times the waveform RMS, at a Poisson rate of
    ``rate_per_s`` per second.
    """

    rate_per_s: float = _severity_field(3.0, "scale")
    amplitude: float = _severity_field(4.0, "scale")
    duration_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise ConfigurationError(f"rate_per_s must be >= 0, got {self.rate_per_s}")
        if self.amplitude < 0:
            raise ConfigurationError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.duration_ms <= 0:
            raise ConfigurationError(
                f"duration_ms must be positive, got {self.duration_ms}"
            )

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Add seeded noise transients to a copy of ``waveform``."""
        out = self._as_array(waveform)
        if out.size == 0 or self.rate_per_s == 0.0 or self.amplitude == 0.0:
            return out
        duration_s = out.size / sample_rate
        count = int(rng.poisson(self.rate_per_s * duration_s))
        if count == 0:
            return out
        length = max(2, int(round(self.duration_ms * 1e-3 * sample_rate)))
        envelope = np.hanning(length)
        rms = float(np.sqrt(np.mean(out**2)))
        scale = self.amplitude * max(rms, 1e-12)
        starts = rng.integers(0, out.size, size=count)
        for start in starts:
            stop = min(start + length, out.size)
            burst = rng.normal(0.0, scale, size=stop - start)
            out[start:stop] += burst * envelope[: stop - start]
        return out


@dataclass(frozen=True)
class SealLeak(FaultModel):
    """Poor earbud seal: attenuated echoes plus leaked-in room noise.

    A leaking seal both weakens the in-canal signal (``attenuation_db``)
    and admits broadband room noise relative to the original RMS
    (``noise_ratio``), dragging the in-band SNR down — the paper's
    dominant at-home failure mode.
    """

    attenuation_db: float = _severity_field(12.0, "scale")
    noise_ratio: float = _severity_field(0.05, "scale")

    def __post_init__(self) -> None:
        if self.attenuation_db < 0:
            raise ConfigurationError(
                f"attenuation_db must be >= 0, got {self.attenuation_db}"
            )
        if self.noise_ratio < 0:
            raise ConfigurationError(f"noise_ratio must be >= 0, got {self.noise_ratio}")

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Attenuate a copy of ``waveform`` and add leak-in noise."""
        out = self._as_array(waveform)
        if out.size == 0:
            return out
        rms = float(np.sqrt(np.mean(out**2)))
        out *= 10.0 ** (-self.attenuation_db / 20.0)
        if self.noise_ratio > 0.0 and rms > 0.0:
            out += rng.normal(0.0, self.noise_ratio * rms, size=out.size)
        return out


@dataclass(frozen=True)
class DCClockDrift(FaultModel):
    """DC offset plus sample-clock drift of a miscalibrated codec.

    Adds a constant offset of ``offset_ratio`` times the peak amplitude
    and linearly resamples the timeline by ``drift_ppm`` parts per
    million (positive = the capture clock runs slow, so the recorded
    signal appears stretched).
    """

    offset_ratio: float = _severity_field(0.1, "scale")
    drift_ppm: float = _severity_field(200.0, "scale")

    def __post_init__(self) -> None:
        if self.offset_ratio < 0:
            raise ConfigurationError(
                f"offset_ratio must be >= 0, got {self.offset_ratio}"
            )

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Offset and clock-stretch a copy of ``waveform``."""
        out = self._as_array(waveform)
        if out.size == 0:
            return out
        if self.drift_ppm != 0.0:
            factor = 1.0 + self.drift_ppm * 1e-6
            positions = np.arange(out.size) * factor
            out = np.interp(positions, np.arange(out.size), out)
        if self.offset_ratio > 0.0:
            peak = float(np.max(np.abs(out))) if out.size else 0.0
            out = out + self.offset_ratio * peak
        return out


@dataclass(frozen=True)
class Truncation(FaultModel):
    """Interrupted recording: only the leading fraction was captured.

    ``keep_fraction`` 1.0 keeps everything; 0.5 models a capture cut
    off halfway (app backgrounded, call interruption, full disk).
    """

    keep_fraction: float = _severity_field(0.5, "toward_one")

    def __post_init__(self) -> None:
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigurationError(
                f"keep_fraction must be in (0, 1], got {self.keep_fraction}"
            )

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Return the kept leading fraction of ``waveform`` (a copy)."""
        out = self._as_array(waveform)
        if out.size == 0 or self.keep_fraction >= 1.0:
            return out
        keep = max(1, int(round(out.size * self.keep_fraction)))
        return out[:keep]


@dataclass(frozen=True)
class NonFiniteCorruption(FaultModel):
    """NaN/Inf corruption: glitching drivers or damaged files.

    Replaces a Poisson number of samples (``rate_per_s`` expected per
    second) with NaN; an ``inf_fraction`` share of the corrupted
    samples becomes ``±Inf`` instead, alternating sign.
    """

    rate_per_s: float = _severity_field(40.0, "scale")
    inf_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise ConfigurationError(f"rate_per_s must be >= 0, got {self.rate_per_s}")
        if not 0.0 <= self.inf_fraction <= 1.0:
            raise ConfigurationError(
                f"inf_fraction must be in [0, 1], got {self.inf_fraction}"
            )

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Poison seeded sample positions of a copy of ``waveform``."""
        out = self._as_array(waveform)
        if out.size == 0 or self.rate_per_s == 0.0:
            return out
        duration_s = out.size / sample_rate
        count = int(rng.poisson(self.rate_per_s * duration_s))
        if count == 0:
            return out
        positions = rng.integers(0, out.size, size=count)
        num_inf = int(round(count * self.inf_fraction))
        out[positions[num_inf:]] = np.nan
        signs = np.where(np.arange(num_inf) % 2 == 0, np.inf, -np.inf)
        out[positions[:num_inf]] = signs
        return out


#: e-folds of tap-amplitude decay across the reverb tail: the last tap
#: of a tail is ``exp(-TAIL_DECAY_FOLDS)`` times the first.
TAIL_DECAY_FOLDS = 2.0


@dataclass(frozen=True)
class ReverbTailFault(FaultModel):
    """Late-reflection reverb tail: a narrow or occluded canal fit.

    Adds ``num_taps`` delayed, attenuated copies of the capture at
    seeded delays between ``onset_ms`` and ``tail_ms`` — reflections
    arriving *after* the eardrum echo window, exactly the multipath the
    rake stage and the ``echo_dominant`` quality reasoning must absorb.
    Tap amplitude is ``gain`` times an exponential decay across the
    tail (see :data:`TAIL_DECAY_FOLDS`) with seeded per-tap jitter.
    """

    num_taps: int = 8
    onset_ms: float = 0.15
    tail_ms: float = 0.9
    gain: float = _severity_field(0.45, "scale")

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise ConfigurationError(f"num_taps must be >= 1, got {self.num_taps}")
        if not 0.0 < self.onset_ms < self.tail_ms:
            raise ConfigurationError("need 0 < onset_ms < tail_ms")
        if self.gain < 0:
            raise ConfigurationError(f"gain must be >= 0, got {self.gain}")

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Superpose seeded late reflections on a copy of ``waveform``."""
        out = self._as_array(waveform)
        if out.size == 0 or self.gain == 0.0:
            return out
        clean = out.copy()
        first = max(1, int(round(self.onset_ms * 1e-3 * sample_rate)))
        last = max(first + 1, int(round(self.tail_ms * 1e-3 * sample_rate)))
        delays = np.sort(rng.integers(first, last + 1, size=self.num_taps))
        decay = np.exp(
            -TAIL_DECAY_FOLDS * np.arange(self.num_taps) / max(1, self.num_taps - 1)
        )
        amplitudes = self.gain * decay * rng.uniform(0.6, 1.0, size=self.num_taps)
        for delay, amplitude in zip(delays, amplitudes):
            if delay < out.size:
                out[delay:] += amplitude * clean[: out.size - delay]
        return out


@dataclass(frozen=True)
class CalibrationDriftFault(FaultModel):
    """Uncalibrated earphone: broadband gain error plus spectral tilt.

    Applies a dB-linear frequency response across the probe band
    (``low_hz`` to ``high_hz``): a flat ``gain_db`` offset plus a
    ``tilt_db`` ramp from the low band edge to the high one, each with
    a seeded random sign — the signature of a device that drifted out
    of factory calibration (cf. the drift model in
    :mod:`repro.simulation.calibration`, which this fault mirrors as a
    waveform-level injection).
    """

    gain_db: float = _severity_field(3.0, "scale")
    tilt_db: float = _severity_field(4.0, "scale")
    low_hz: float = 15_000.0
    high_hz: float = 21_000.0

    def __post_init__(self) -> None:
        if self.gain_db < 0:
            raise ConfigurationError(f"gain_db must be >= 0, got {self.gain_db}")
        if self.tilt_db < 0:
            raise ConfigurationError(f"tilt_db must be >= 0, got {self.tilt_db}")
        if not 0.0 < self.low_hz < self.high_hz:
            raise ConfigurationError("need 0 < low_hz < high_hz")

    def apply(
        self, waveform: np.ndarray, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Reshape a copy of ``waveform`` with a seeded gain/tilt response."""
        out = self._as_array(waveform)
        if out.size == 0 or (self.gain_db == 0.0 and self.tilt_db == 0.0):
            return out
        # Signs are drawn unconditionally so the RNG stream, and hence
        # any fault applied after it, is stable across severity settings.
        gain_sign = 1.0 if rng.random() < 0.5 else -1.0
        tilt_sign = 1.0 if rng.random() < 0.5 else -1.0
        freqs = np.fft.rfftfreq(out.size, d=1.0 / sample_rate)
        centre = 0.5 * (self.low_hz + self.high_hz)
        half_band = 0.5 * (self.high_hz - self.low_hz)
        shape = np.clip((freqs - centre) / half_band, -1.0, 1.0)
        level_db = gain_sign * self.gain_db + tilt_sign * self.tilt_db * shape
        response = 10.0 ** (level_db / 20.0)
        return np.fft.irfft(np.fft.rfft(out) * response, n=out.size)


def fault_catalog(severity: float = 1.0) -> "dict[str, FaultModel]":
    """The standard fault taxonomy at a common severity.

    Keys are stable snake-case names used by the robustness-curve
    experiment and the chaos suite; severity 1.0 is each model's
    default configuration.
    """
    base: dict[str, FaultModel] = {
        "dropout": DropoutBursts(),
        "clipping": Clipping(),
        "transient": TransientBursts(),
        "seal_leak": SealLeak(),
        "dc_drift": DCClockDrift(),
        "truncation": Truncation(),
        "nonfinite": NonFiniteCorruption(),
        "reverb_tail": ReverbTailFault(),
        "calibration_drift": CalibrationDriftFault(),
    }
    return {name: model.at_severity(severity) for name, model in base.items()}


def apply_to_recording(
    recording: "Recording", model: FaultModel, rng: np.random.Generator
) -> "Recording":
    """Damaged copy of a :class:`~repro.simulation.session.Recording`.

    Replaces only the waveform; provenance, ground truth, and the
    session config are preserved so downstream scoring still knows the
    truth the damaged capture *should* have produced.
    """
    import dataclasses as _dc

    damaged = model.apply(recording.waveform, recording.sample_rate, rng)
    return _dc.replace(recording, waveform=damaged)
