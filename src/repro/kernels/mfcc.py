"""Planned, batched MFCC extraction.

The serial :func:`repro.signal.mfcc.mfcc` rebuilt the mel filterbank
(a ``num_filters x (nfft//2+1)`` triangle-by-triangle Python loop) and
the DCT basis on *every call*; the pipeline calls it once per
recording and the feature bench thousands of times.  Here both come
from the :mod:`repro.kernels.plan` cache keyed by the frozen
:class:`~repro.signal.mfcc.MfccConfig`, and the whole pipeline —
window, batched frame FFT, filterbank application, DCT — is four
vectorized operations.  Framing is one
:func:`numpy.lib.stride_tricks.sliding_window_view` plus a hop slice,
so no per-frame Python work and no index-matrix allocation happens.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigurationError
from ..signal.mfcc import MfccConfig
from .plan import MfccPlan, mfcc_plan
from .spectral import batched_power_rows

__all__ = ["mfcc_planned", "frames_zero_padded"]

#: Log floor applied to filterbank energies (matches the serial path).
_LOG_FLOOR = 1e-12


def frames_zero_padded(signal: np.ndarray, frame_length: int, hop: int) -> np.ndarray:
    """Overlapping frames of ``signal`` with a zero-padded tail.

    Mirrors the MFCC framing contract: a signal no longer than one
    frame becomes a single padded frame; otherwise ``1 + ceil((n - L) /
    hop)`` frames cover every sample.  Returns a fresh writable array
    (frames are consumed by windowing, which needs a copy anyway).
    """
    signal = np.asarray(signal, dtype=float)
    if frame_length < 1:
        raise ValueError(f"frame_length must be >= 1, got {frame_length}")
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if signal.size <= frame_length:
        padded = np.zeros(frame_length)
        padded[: signal.size] = signal
        return padded[None, :]
    num_frames = 1 + int(np.ceil((signal.size - frame_length) / hop))
    padded = np.zeros((num_frames - 1) * hop + frame_length)
    padded[: signal.size] = signal
    return np.ascontiguousarray(sliding_window_view(padded, frame_length)[::hop])


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
