"""Window functions used to shape chirp pulses and FFT frames.

The paper (Sec. IV-B1) passes each received pulse through a Hanning
window "to reshape the envelope of the signals and increase their
peak-to-sidelobe ratio".  We implement the standard cosine-sum family
from first principles rather than relying on ``scipy.signal.windows``;
the SciPy implementations are used only as oracles in the test suite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hann", "hamming"]


def _cosine_sum(length: int, coefficients: tuple[float, ...], *, periodic: bool) -> np.ndarray:
    """Generalised cosine-sum window.

    Parameters
    ----------
    length:
        Number of samples; must be non-negative.
    coefficients:
        Cosine-series coefficients ``a_k``; the window is
        ``sum_k (-1)^k a_k cos(2 pi k n / (N - 1))``.
    periodic:
        If true, compute a DFT-even window (denominator ``N`` instead of
        ``N - 1``), appropriate for spectral analysis.
    """
    if length < 0:
        raise ValueError(f"window length must be non-negative, got {length}")
    if length == 0:
        return np.zeros(0)
    if length == 1:
        return np.ones(1)
    denom = length if periodic else length - 1
    n = np.arange(length)
    window = np.zeros(length)
    for k, a_k in enumerate(coefficients):
        window += ((-1) ** k) * a_k * np.cos(2.0 * np.pi * k * n / denom)
    return window


def hann(length: int, *, periodic: bool = False) -> np.ndarray:
    """Hann (Hanning) window, the paper's pulse-shaping window."""
    return _cosine_sum(length, (0.5, 0.5), periodic=periodic)


def hamming(length: int, *, periodic: bool = False) -> np.ndarray:
    """Hamming window (25/46 coefficient variant, as in the classic papers)."""
    return _cosine_sum(length, (25.0 / 46.0, 21.0 / 46.0), periodic=periodic)
