"""Statistical descriptors of the echo power-spectrum curve.

The paper (Sec. IV-C2, "Statistic Features") summarises the global
shape of the absorbed-spectrum curve with: mean, standard deviation,
maximum, minimum, skewness and kurtosis.  We add the spectral centroid
(the dip shifts it measurably), giving the 7 statistics used in the
105-element feature vector.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mean",
    "standard_deviation",
    "minimum",
    "maximum",
    "skewness",
    "kurtosis",
    "spectral_centroid",
    "curve_statistics",
]


def _validated(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("statistics require a non-empty array")
    return arr


def mean(values: np.ndarray) -> float:
    """Arithmetic mean."""
    return float(np.mean(_validated(values)))


def standard_deviation(values: np.ndarray) -> float:
    """Population standard deviation."""
    return float(np.std(_validated(values)))


def minimum(values: np.ndarray) -> float:
    """Smallest value."""
    return float(np.min(_validated(values)))


def maximum(values: np.ndarray) -> float:
    """Largest value."""
    return float(np.max(_validated(values)))


def skewness(values: np.ndarray) -> float:
    """Fisher skewness (third standardised moment); 0 for constant input."""
    arr = _validated(values)
    centred = arr - arr.mean()
    sigma = np.sqrt(np.mean(centred**2))
    denom = sigma**3
    if denom == 0.0:  # constant input, or denormal underflow
        return 0.0
    return float(np.mean(centred**3) / denom)


def kurtosis(values: np.ndarray) -> float:
    """Excess kurtosis (fourth standardised moment minus 3)."""
    arr = _validated(values)
    centred = arr - arr.mean()
    sigma2 = np.mean(centred**2)
    denom = sigma2**2
    if denom == 0.0:  # constant input, or denormal underflow
        return 0.0
    return float(np.mean(centred**4) / denom - 3.0)


def spectral_centroid(values: np.ndarray, frequencies: np.ndarray | None = None) -> float:
    """Amplitude-weighted mean frequency of the curve.

    With no explicit ``frequencies`` the bin index is used, which is a
    linear mapping of any uniform grid and therefore equivalent for
    learning purposes.
    """
    arr = _validated(values)
    if frequencies is None:
        freq = np.arange(arr.size, dtype=float)
    else:
        freq = np.asarray(frequencies, dtype=float)
        if freq.shape != arr.shape:
            raise ValueError(f"frequency shape {freq.shape} != values shape {arr.shape}")
    weights = np.abs(arr)
    total = weights.sum()
    if total == 0.0:
        return float(freq.mean())
    return float(np.sum(freq * weights) / total)


def curve_statistics(values: np.ndarray, frequencies: np.ndarray | None = None) -> np.ndarray:
    """The 7 statistics of a spectral curve.

    In order: mean, standard deviation, maximum, minimum, skewness,
    kurtosis and spectral centroid.
    """
    arr = _validated(values)
    return np.array(
        [
            mean(arr),
            standard_deviation(arr),
            maximum(arr),
            minimum(arr),
            skewness(arr),
            kurtosis(arr),
            spectral_centroid(arr, frequencies),
        ]
    )
