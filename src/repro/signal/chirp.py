"""FMCW chirp design and synthesis (paper Sec. IV-A).

EarSonar probes the ear canal with intermittent linear
frequency-modulated continuous-wave (FMCW) chirps.  The paper's design
parameters, all defaults here:

* start frequency ``f0 = 16 kHz`` (inaudible band, easy to filter),
* bandwidth ``B = 4 kHz`` (so the sweep ends at 20 kHz),
* chirp duration ``T = 0.5 ms``,
* inter-chirp interval ``>= 5 ms`` so all echoes within ~10 cm of
  round-trip distance land before the next chirp,
* sample rate 48 kHz (commodity smartphone audio).

The instantaneous frequency is ``f(t) = f0 + (B / T) * t`` and the
transmitted pressure waveform is the integral of that frequency:
``x(t) = A sin(2 pi (f0 t + B t^2 / (2 T)) + phi)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .windows import hann

__all__ = [
    "ChirpDesign",
    "linear_chirp",
    "matched_filter_reference",
    "cross_correlate",
]

#: Speed of sound in air at body-adjacent temperature (m/s).  Used to
#: convert echo delays to distances throughout the library.
SPEED_OF_SOUND = 343.0


@dataclass(frozen=True)
class ChirpDesign:
    """Immutable description of the probing FMCW chirp.

    Parameters mirror the paper's Sec. IV-A.  Validation happens at
    construction time so that an impossible design (band above Nyquist,
    non-positive duration) cannot propagate into the simulator.

    Attributes
    ----------
    sample_rate:
        Audio sample rate in Hz.
    start_frequency:
        Sweep start ``f0`` in Hz.
    bandwidth:
        Sweep bandwidth ``B`` in Hz; the sweep ends at ``f0 + B``.
    duration:
        Chirp duration ``T`` in seconds.
    interval:
        Spacing between the *starts* of consecutive chirps in seconds.
    amplitude:
        Peak amplitude of the synthesised chirp.
    initial_phase:
        Initial phase ``phi`` in radians.
    windowed:
        If true (default), shape each pulse with a Hann window as the
        paper does to raise the peak-to-sidelobe ratio.
    """

    sample_rate: float = 48_000.0
    start_frequency: float = 16_000.0
    bandwidth: float = 4_000.0
    duration: float = 0.5e-3
    interval: float = 5.0e-3
    amplitude: float = 1.0
    initial_phase: float = 0.0
    windowed: bool = True

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ConfigurationError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.start_frequency <= 0:
            raise ConfigurationError(
                f"start_frequency must be positive, got {self.start_frequency}"
            )
        if self.bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if self.interval < self.duration:
            raise ConfigurationError(
                f"interval ({self.interval}) must be at least the chirp duration "
                f"({self.duration}); chirps may not overlap"
            )
        nyquist = self.sample_rate / 2.0
        if self.end_frequency > nyquist:
            raise ConfigurationError(
                f"sweep end {self.end_frequency} Hz exceeds Nyquist {nyquist} Hz"
            )
        if self.amplitude <= 0:
            raise ConfigurationError(f"amplitude must be positive, got {self.amplitude}")

    @property
    def end_frequency(self) -> float:
        """Sweep end frequency ``f0 + B`` in Hz."""
        return self.start_frequency + self.bandwidth

    @property
    def center_frequency(self) -> float:
        """Sweep centre frequency in Hz."""
        return self.start_frequency + self.bandwidth / 2.0

    @property
    def samples_per_chirp(self) -> int:
        """Number of samples in one chirp pulse."""
        return max(1, int(round(self.duration * self.sample_rate)))

    @property
    def samples_per_interval(self) -> int:
        """Number of samples from one chirp start to the next."""
        return max(1, int(round(self.interval * self.sample_rate)))

    @property
    def sweep_rate(self) -> float:
        """Frequency sweep rate ``B / T`` in Hz per second."""
        return self.bandwidth / self.duration


def linear_chirp(design: ChirpDesign) -> np.ndarray:
    """Synthesise a single chirp pulse for ``design``.

    Returns a float array of length ``design.samples_per_chirp`` whose
    instantaneous frequency sweeps linearly from ``f0`` to ``f0 + B``.
    """
    n = design.samples_per_chirp
    t = np.arange(n) / design.sample_rate
    phase = (
        2.0 * np.pi
        * (design.start_frequency * t + design.sweep_rate * t**2 / 2.0)
        + design.initial_phase
    )
    pulse = design.amplitude * np.sin(phase)
    if design.windowed:
        pulse = pulse * hann(n)
    return pulse


def cross_correlate(signal: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Full cross-correlation of ``signal`` with ``template`` via FFT.

    Output index ``i`` corresponds to lag ``i - (len(template) - 1)``.
    """
    signal = np.asarray(signal, dtype=float)
    template = np.asarray(template, dtype=float)
    if signal.size == 0 or template.size == 0:
        raise ValueError("cross_correlate requires non-empty inputs")
    n = signal.size + template.size - 1
    nfft = 1 << (n - 1).bit_length()
    spec = np.fft.rfft(signal, nfft) * np.conj(np.fft.rfft(template, nfft))
    corr = np.fft.irfft(spec, nfft)
    # Circular correlation keeps negative lags at the buffer's end;
    # roll them to the front so index 0 is lag -(len(template) - 1),
    # matching np.correlate(signal, template, mode="full").
    return np.roll(corr, template.size - 1)[:n]


def matched_filter_reference(signal: np.ndarray, design: ChirpDesign) -> np.ndarray:
    """Plan-free matched filter: the correctness oracle.

    Returns the correlation magnitude, same length as ``signal``, with
    peaks at pulse arrival times.  Re-synthesises the pulse and runs the
    generic :func:`cross_correlate`; hot paths, such as the capture
    quality gate, run
    :func:`repro.kernels.chirp.matched_filter_planned` instead.
    """
    pulse = linear_chirp(design)
    corr = cross_correlate(np.asarray(signal, dtype=float), pulse)
    # Keep the "valid onset" alignment: lag 0 .. len(signal)-1.
    start = pulse.size - 1
    return np.abs(corr[start : start + np.asarray(signal).size])
