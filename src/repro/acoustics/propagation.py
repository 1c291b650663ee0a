"""Multipath acoustic propagation (paper Eq. (4)-(5)).

The received microphone signal is a superposition of delayed, scaled,
and (for the eardrum path) spectrally shaped copies of the transmitted
chirp.  :class:`MultipathChannel` composes :class:`PropagationPath`
objects into a single frequency-domain transfer function

``H(f) = sum_i g_i * F_i(f) * exp(-j 2 pi f tau_i)``

and applies it with one FFT round trip, which supports fractional
sample delays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigurationError

__all__ = ["PropagationPath", "MultipathChannel"]

ResponseFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PropagationPath:
    """One acoustic path from speaker to microphone.

    Attributes
    ----------
    delay_s:
        Total propagation delay in seconds (may be fractional samples).
    gain:
        Broadband amplitude gain (spreading + boundary losses).
    response:
        Optional frequency-dependent amplitude response evaluated on a
        frequency array in Hz (e.g. the eardrum reflectance curve).
    phase:
        Carrier phase offset in radians applied to the path.  In-ear
        reflections off compliant tissue have unstable phase; the
        paper's signal model (Eq. (5)) sums path amplitudes without
        phase terms, which the simulator realises by randomising this
        offset per chirp.
    label:
        Diagnostic name ("direct", "canal-wall", "eardrum", ...).
    """

    delay_s: float
    gain: float
    response: ResponseFn | None = None
    phase: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ConfigurationError(f"delay_s must be >= 0, got {self.delay_s}")


@dataclass
class MultipathChannel:
    """A linear time-invariant multipath channel."""

    paths: list[PropagationPath] = field(default_factory=list)

    def add(self, path: PropagationPath) -> "MultipathChannel":
        """Append a path; returns self for chaining."""
        self.paths.append(path)
        return self

    def transfer_function(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Complex channel response at the given frequencies."""
        freqs = np.asarray(frequencies_hz, dtype=float)
        h = np.zeros(freqs.shape, dtype=complex)
        for path in self.paths:
            phase = np.exp(-2j * np.pi * freqs * path.delay_s + 1j * path.phase)
            shaped = path.gain * phase
            if path.response is not None:
                shaped = shaped * np.asarray(path.response(freqs), dtype=complex)
            h += shaped
        return h

    def apply(self, signal: np.ndarray, sample_rate: float, *, extra_samples: int | None = None) -> np.ndarray:
        """Propagate ``signal`` through the channel.

        The output is extended by the largest path delay (rounded up)
        unless ``extra_samples`` overrides the padding, so no echo is
        truncated.
        """
        signal = np.asarray(signal, dtype=float)
        if signal.size == 0:
            raise ConfigurationError("cannot propagate an empty signal")
        if sample_rate <= 0:
            raise ConfigurationError(f"sample_rate must be positive, got {sample_rate}")
        if not self.paths:
            return np.zeros_like(signal)
        longest_delay = max(p.delay_s for p in self.paths)
        pad = extra_samples if extra_samples is not None else int(np.ceil(longest_delay * sample_rate)) + 1
        n = signal.size + pad
        nfft = 1 << (max(n, 2) - 1).bit_length()
        freqs = np.fft.rfftfreq(nfft, d=1.0 / sample_rate)
        spectrum = np.fft.rfft(signal, nfft)
        received = np.fft.irfft(spectrum * self.transfer_function(freqs), nfft)
        return received[:n]
