"""Spectral analysis helpers: amplitude spectra, PSDs, band energy.

EarSonar's absorption analysis (paper Sec. IV-C1) FFTs a fixed window
centred on the eardrum-echo peak and inspects the 16-20 kHz power
spectral density.  These helpers implement that analysis plus a
Welch-averaged PSD of a whole signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .windows import hann

__all__ = [
    "Spectrum",
    "amplitude_spectrum",
    "power_spectrum",
    "welch_psd",
    "band_slice",
    "band_energy",
    "normalize_spectrum",
    "spectral_correlation",
]


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

    @property
    def resolution(self) -> float:
        """Frequency spacing between bins in Hz."""
        if self.frequencies.size < 2:
            return 0.0
        return float(self.frequencies[1] - self.frequencies[0])


def amplitude_spectrum(signal: np.ndarray, sample_rate: float, *, nfft: int | None = None) -> Spectrum:
    """One-sided amplitude spectrum ``|FFT(x)| / N`` (paper Eq. (5))."""
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ValueError("amplitude_spectrum requires a non-empty signal")
    n = signal.size if nfft is None else int(nfft)
    spec = np.abs(np.fft.rfft(signal, n)) / signal.size
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    return Spectrum(freqs, spec)


def power_spectrum(signal: np.ndarray, sample_rate: float, *, nfft: int | None = None) -> Spectrum:
    """One-sided power spectrum ``|FFT(x)|^2 / N^2`` with doubled interior bins."""
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ValueError("power_spectrum requires a non-empty signal")
    n = signal.size if nfft is None else int(nfft)
    raw = np.abs(np.fft.rfft(signal, n)) ** 2 / signal.size**2
    # Double everything except DC (and Nyquist when n is even) so the sum
    # equals the mean-square of the time signal (Parseval).
    if raw.size > 1:
        raw[1:] *= 2.0
        if n % 2 == 0:
            raw[-1] /= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    return Spectrum(freqs, raw)


def welch_psd(
    signal: np.ndarray,
    sample_rate: float,
    *,
    segment_length: int = 256,
    overlap: float = 0.5,
) -> Spectrum:
    """Welch-averaged power spectral density with a Hann window.

    Segments of ``segment_length`` samples overlapping by ``overlap``
    (fraction) are windowed, periodogrammed, and averaged.  Density is
    normalised per Hz so that integrating over frequency approximates
    the signal's mean-square value.  A signal shorter than one segment
    is analysed as a single segment of its own length.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ValueError("welch_psd requires a non-empty signal")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    segment_length = int(segment_length)
    if segment_length <= 0:
        raise ValueError(f"segment_length must be positive, got {segment_length}")
    if signal.size < segment_length:
        segment_length = signal.size
    window = hann(segment_length, periodic=True)
    scale = 1.0 / (sample_rate * np.sum(window**2))
    hop = max(1, int(round(segment_length * (1.0 - overlap))))
    periodograms = []
    for start in range(0, signal.size - segment_length + 1, hop):
        frame = signal[start : start + segment_length] * window
        p = (np.abs(np.fft.rfft(frame)) ** 2) * scale
        if p.size > 1:
            p[1:] *= 2.0
            if segment_length % 2 == 0:
                p[-1] /= 2.0
        periodograms.append(p)
    psd = np.mean(periodograms, axis=0)
    freqs = np.fft.rfftfreq(segment_length, d=1.0 / sample_rate)
    return Spectrum(freqs, psd)


def band_slice(spectrum: Spectrum, low_hz: float, high_hz: float) -> Spectrum:
    """Alias of :meth:`Spectrum.band` kept for functional-style call sites."""
    return spectrum.band(low_hz, high_hz)


def band_energy(spectrum: Spectrum, low_hz: float, high_hz: float) -> float:
    """Total spectral value inside ``[low_hz, high_hz]``."""
    return float(np.sum(spectrum.band(low_hz, high_hz).values))


def normalize_spectrum(spectrum: Spectrum) -> Spectrum:
    """Scale a spectrum so its maximum value is 1 (paper's Fig. 9-11 style).

    A spectrum of all zeros is returned unchanged.
    """
    peak = float(np.max(spectrum.values)) if spectrum.values.size else 0.0
    if peak <= 0.0:
        return spectrum
    return Spectrum(spectrum.frequencies, spectrum.values / peak)


def spectral_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation between two equal-length spectral curves.

    Used to reproduce the session-to-session consistency analysis of
    Fig. 9; returns a value in [-1, 1].
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("correlation requires at least two points")
    a_c = a - a.mean()
    b_c = b - b.mean()
    denom = np.sqrt(np.sum(a_c**2) * np.sum(b_c**2))
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.sum(a_c * b_c) / denom, -1.0, 1.0))
