"""FFT-based resampling.

At 48 kHz the eardrum echo trails the direct pulse by only ~4-8
samples, too coarse for the symmetry search to separate the two.  The
paper notes that it performs "FFT processing on the interpolated
signal" (Sec. IV-C1); this module provides the band-limited
interpolation: upsampling by zero-padding the spectrum, which is exact
for band-limited signals and preserves echo timing to sub-sample
precision.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["upsample", "downsample", "resample_to"]


def upsample(signal: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited upsampling of ``signal`` by an integer ``factor``.

    Zero-pads the one-sided spectrum so the output has
    ``signal.shape[-1] * factor`` samples spanning the same time
    interval.  Energy normalisation preserves sample *amplitudes* (an
    upsampled sine keeps its peak value).  A stack of equal-length rows
    is upsampled along the last axis; each row comes out bit-identical
    to upsampling it on its own.
    """
    if factor < 1:
        raise ConfigurationError(f"factor must be >= 1, got {factor}")
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ConfigurationError("cannot upsample an empty signal")
    if factor == 1:
        return signal.copy()
    n = signal.shape[-1]
    out_n = n * factor
    spectrum = np.fft.rfft(signal, axis=-1)
    bins = spectrum.shape[-1]
    padded = np.zeros(signal.shape[:-1] + (out_n // 2 + 1,), dtype=complex)
    padded[..., :bins] = spectrum
    # If n is even the original Nyquist bin is shared; halve it to keep
    # the interpolation real-symmetric.
    if n % 2 == 0:
        padded[..., bins - 1] *= 0.5
    return np.fft.irfft(padded, out_n, axis=-1) * factor


def downsample(signal: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited decimation by an integer ``factor``.

    Truncates the spectrum (ideal anti-alias low-pass) before taking
    every ``factor``-th sample.
    """
    if factor < 1:
        raise ConfigurationError(f"factor must be >= 1, got {factor}")
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ConfigurationError("cannot downsample an empty signal")
    if factor == 1:
        return signal.copy()
    out_n = signal.size // factor
    if out_n == 0:
        raise ConfigurationError(
            f"signal of {signal.size} samples too short to downsample by {factor}"
        )
    spectrum = np.fft.rfft(signal[: out_n * factor])
    truncated = spectrum[: out_n // 2 + 1].copy()
    if out_n % 2 == 0:
        truncated[-1] = truncated[-1].real * 2.0
    return np.fft.irfft(truncated, out_n) / factor


def resample_to(signal: np.ndarray, num_samples: int) -> np.ndarray:
    """Resample ``signal`` to exactly ``num_samples`` via the spectrum.

    General-ratio resampling used to put echo segments on a uniform
    length before feature extraction.
    """
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ConfigurationError("cannot resample an empty signal")
    if num_samples == signal.size:
        return signal.copy()
    spectrum = np.fft.rfft(signal)
    out_bins = num_samples // 2 + 1
    out_spec = np.zeros(out_bins, dtype=complex)
    take = min(spectrum.size, out_bins)
    out_spec[:take] = spectrum[:take]
    return np.fft.irfft(out_spec, num_samples) * (num_samples / signal.size)
