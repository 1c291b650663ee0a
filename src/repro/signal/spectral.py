"""Amplitude spectra.

EarSonar's absorption analysis (paper Sec. IV-C1) FFTs a fixed window
centred on the eardrum-echo peak and inspects the 16-20 kHz band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "amplitude_spectrum"]


@dataclass(frozen=True)
class Spectrum:
    """A one-sided spectrum: frequencies in Hz and matching values.

    ``values`` are amplitudes or power densities depending on which
    constructor produced the object; the container itself is agnostic.
    """

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.frequencies.shape != self.values.shape:
            raise ValueError(
                f"frequencies shape {self.frequencies.shape} != values shape {self.values.shape}"
            )

    def band(self, low_hz: float, high_hz: float) -> "Spectrum":
        """Restrict the spectrum to ``[low_hz, high_hz]`` inclusive."""
        mask = (self.frequencies >= low_hz) & (self.frequencies <= high_hz)
        return Spectrum(self.frequencies[mask], self.values[mask])


def amplitude_spectrum(signal: np.ndarray, sample_rate: float, *, nfft: int | None = None) -> Spectrum:
    """One-sided amplitude spectrum ``|FFT(x)| / N`` (paper Eq. (5))."""
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ValueError("amplitude_spectrum requires a non-empty signal")
    n = signal.size if nfft is None else int(nfft)
    spec = np.abs(np.fft.rfft(signal, n)) / signal.size
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    return Spectrum(freqs, spec)
