"""Planned, batched MFCC extraction.

The serial :func:`repro.signal.mfcc.mfcc` rebuilt the mel filterbank
(a ``num_filters x (nfft//2+1)`` triangle-by-triangle Python loop) and
the DCT basis on *every call*; the pipeline calls it once per
recording and the feature bench thousands of times.  Here both come
from the :mod:`repro.kernels.plan` cache keyed by the frozen
:class:`~repro.signal.mfcc.MfccConfig`, and the whole pipeline —
window, batched frame FFT, filterbank application, DCT — is four
vectorized operations.  :func:`mfcc_batched` additionally stacks many
equal-length segments into a single 3-D pass.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..signal.mfcc import MfccConfig
from .framing import frames_zero_padded
from .plan import MfccPlan, mfcc_plan
from .spectral import batched_power_rows

__all__ = ["mfcc_planned", "mfcc_batched"]

#: Log floor applied to filterbank energies (matches the serial path).
_LOG_FLOOR = 1e-12


def _cepstra(power: np.ndarray, plan: MfccPlan) -> np.ndarray:
    """Filterbank -> log -> DCT for a ``(..., n_bins)`` power stack."""
    energies = power @ plan.filterbank.T
    log_energies = np.log(np.maximum(energies, _LOG_FLOOR))
    return (log_energies @ plan.dct_basis.T) * plan.dct_scale


def mfcc_planned(signal: np.ndarray, config: MfccConfig) -> np.ndarray:
    """MFCC matrix ``(num_frames, num_coefficients)`` of one signal.

    Drop-in replacement for the serial :func:`repro.signal.mfcc.mfcc`
    body; bit-identical because the cached filterbank/window/basis are
    built by the same constructors and the frame FFT batches the same
    per-frame transforms.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ConfigurationError("mfcc requires a non-empty signal")
    plan = mfcc_plan(config)
    frames = frames_zero_padded(signal, config.frame_length, config.frame_hop)
    power = batched_power_rows(frames * plan.window, config.nfft)
    return _cepstra(power, plan)


def mfcc_batched(segments: np.ndarray, config: MfccConfig) -> np.ndarray:
    """MFCCs of a ``(batch, samples)`` stack of equal-length segments.

    Returns ``(batch, num_frames, num_coefficients)``.  Each segment
    must be at least one frame long so the framing is uniform; shorter
    batches should fall back to :func:`mfcc_planned` per segment.
    """
    segments = np.asarray(segments, dtype=float)
    if segments.ndim != 2:
        raise ValueError(f"segments must be 2-D, got shape {segments.shape}")
    batch, n = segments.shape
    if n == 0:
        raise ValueError("mfcc_batched requires non-empty segments")
    plan = mfcc_plan(config)
    length, hop = config.frame_length, config.frame_hop
    if n <= length:
        padded = np.zeros((batch, length))
        padded[:, :n] = segments
        frames = padded[:, None, :]
    else:
        num_frames = 1 + int(np.ceil((n - length) / hop))
        padded = np.zeros((batch, (num_frames - 1) * hop + length))
        padded[:, :n] = segments
        from numpy.lib.stride_tricks import sliding_window_view

        frames = sliding_window_view(padded, length, axis=-1)[:, ::hop, :]
    windowed = frames * plan.window
    power = np.abs(np.fft.rfft(windowed, config.nfft, axis=-1)) ** 2
    return _cepstra(power, plan)
