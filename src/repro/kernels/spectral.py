"""Batch-first spectral kernels: Welch PSD and band-zoom amplitude spectra.

The serial :mod:`repro.signal.spectral` implementations loop over
segments (Welch) or are called once per echo (amplitude spectra).  The
Welch kernel frames with a strided view and runs **one** batched
``rfft`` over a ``(num_frames, samples)`` stack; the band-zoom kernel
evaluates a ``(num_signals, samples)`` stack's spectrum only at the FFT
bins inside the probe band, with one matrix product.  All
shape-dependent state (window, density scale, frequency grid, zoom
matrix) comes from the :mod:`repro.kernels.plan` cache.

Numerical contract: the golden suite in ``tests/kernels`` holds every
kernel here to a ``<= 1e-10`` max-abs-diff bound against the serial
reference across randomized shapes.  Welch and the frame power spectra
run the reference's own expressions and match it bit-for-bit; the
band-zoom DFT is an equivalent but different transform, so it matches
the full-FFT oracle to rounding (~1e-15) rather than bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .framing import frames_dropping_tail
from .plan import BandZoomPlan, welch_plan

__all__ = ["welch_periodograms", "band_zoom_amplitude", "batched_power_rows"]


def welch_periodograms(
    signal: np.ndarray,
    sample_rate: float,
    *,
    segment_length: int,
    overlap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """All Welch segment periodograms of ``signal`` in one batched FFT.

    Returns ``(frequencies, periodograms)`` where ``periodograms`` has
    shape ``(num_segments, segment_length // 2 + 1)``; the caller
    averages over axis 0 (this split keeps the kernel reusable for
    spectrogram-style consumers).  Validation mirrors
    :func:`repro.signal.spectral.welch_psd`.
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
    plan = welch_plan(segment_length, float(sample_rate))
    hop = max(1, int(round(segment_length * (1.0 - overlap))))
    frames = frames_dropping_tail(signal, segment_length, hop) * plan.window
    periodograms = (np.abs(np.fft.rfft(frames, axis=-1)) ** 2) * plan.scale
    if periodograms.shape[1] > 1:
        periodograms[:, 1:] *= 2.0
        if segment_length % 2 == 0:
            periodograms[:, -1] /= 2.0
    return plan.frequencies, periodograms


def band_zoom_amplitude(signals: np.ndarray, plan: BandZoomPlan) -> np.ndarray:
    """Band amplitude spectra of a ``(batch, samples)`` stack on a grid.

    Row ``k`` is :func:`repro.signal.spectral.amplitude_spectrum` of
    ``signals[k]`` restricted to the plan's band and linearly
    interpolated onto its grid (``np.interp``), but computed as one
    ``(batch, samples) x (samples, 2 * band_bins)`` real matrix product
    plus a gather instead of a full ``nfft``-point FFT per row.
    Returns ``(batch, grid_points)``.
    """
    rows, width = plan.matrix.shape
    # einsum rather than matmul: it never calls BLAS, whose worker
    # threads would oversubscribe the cores that the executor's pool
    # processes already occupy (measured slower than the full FFT).
    parts = np.einsum("ij,jk->ik", signals[:, :rows], plan.matrix)
    band = np.hypot(parts[:, : width // 2], parts[:, width // 2 :]) * plan.scale
    return band[:, plan.lo] * (1.0 - plan.weight) + band[:, plan.hi] * plan.weight


def batched_power_rows(frames: np.ndarray, nfft: int) -> np.ndarray:
    """Power spectra ``|rfft(frames, nfft)|**2`` of a 2-D frame stack."""
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ValueError(f"frames must be 2-D, got shape {frames.shape}")
    return np.abs(np.fft.rfft(frames, int(nfft), axis=-1)) ** 2
