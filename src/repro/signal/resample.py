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

__all__ = ["upsample"]


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
