"""Batch-first spectral kernels: band-zoom amplitude spectra and frame power.

The serial :func:`repro.signal.spectral.amplitude_spectrum` is called
once per echo.  The band-zoom kernel evaluates a
``(num_signals, samples)`` stack's spectrum only at the FFT bins inside
the probe band, with one matrix product; its zoom matrix and
interpolation weights come from the :mod:`repro.kernels.plan` cache.
:func:`batched_power_rows` is the MFCC frame power spectrum.

Numerical contract: the golden suite in ``tests/kernels`` holds the
band-zoom DFT to a ``<= 1e-10`` max-abs-diff bound against the per-row
full-FFT oracle across randomized shapes.  It is an equivalent but
different transform, so it matches to rounding (~1e-15) rather than
bit-for-bit; the frame power spectra run the MFCC reference's own
expression and match it bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .plan import BandZoomPlan

__all__ = ["band_zoom_amplitude", "batched_power_rows"]


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
