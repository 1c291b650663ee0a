"""Zero-copy framing of 1-D signals into ``(num_frames, length)`` stacks.

Both analysis kernels (Welch, MFCC) start by cutting a signal into
overlapping frames.  The serial implementations did this with Python
loops or fancy-index matrices; here a single
:func:`numpy.lib.stride_tricks.sliding_window_view` produces a strided
view and one slice selects the hop, so no per-frame Python work and no
index-matrix allocation happens.

Two tail conventions exist in the codebase and both are preserved
exactly:

* :func:`frames_dropping_tail` — Welch convention: only complete
  segments count, trailing samples are ignored.
* :func:`frames_zero_padded` — MFCC convention: the tail is zero-padded
  so every sample lands in at least one frame.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["frames_dropping_tail", "frames_zero_padded"]


def frames_dropping_tail(signal: np.ndarray, frame_length: int, hop: int) -> np.ndarray:
    """Complete overlapping frames of ``signal``; the tail is dropped.

    Returns a read-only strided view of shape ``(num_frames,
    frame_length)`` with frame ``k`` starting at ``k * hop`` — the same
    frames the serial Welch loop visits.  Raises ``ValueError`` when no
    complete frame fits.
    """
    signal = np.asarray(signal)
    if frame_length < 1:
        raise ValueError(f"frame_length must be >= 1, got {frame_length}")
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if signal.size < frame_length:
        raise ValueError(
            f"signal of {signal.size} samples cannot fill a {frame_length}-sample frame"
        )
    return sliding_window_view(signal, frame_length)[::hop]


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
