"""Planned chirp-domain kernels: trains and matched filtering.

The chirp pulse and its FFT depend only on the frozen
:class:`~repro.signal.chirp.ChirpDesign` (plus the FFT size), so both
live in the plan cache; matched filtering a stream then costs one
forward FFT of the stream, one multiply against the cached conjugate
template spectrum, and one inverse FFT — the template is never
re-synthesised or re-transformed.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..signal.chirp import ChirpDesign
from .plan import chirp_pulse, matched_filter_spectrum, rake_plan

__all__ = [
    "chirp_train_planned",
    "matched_filter_planned",
    "rake_cancel_planned",
]


def chirp_train_planned(
    design: ChirpDesign, num_chirps: int, *, total_samples: int | None = None
) -> np.ndarray:
    """Vectorized chirp-train synthesis (one placement, no Python loop).

    Because a design's pulse can never outlast its interval
    (``interval >= duration`` is validated at construction), pulses
    never overlap and the train is a strided placement of the cached
    pulse into a ``(num_chirps, hop)`` buffer — exactly the samples the
    serial per-chirp loop wrote.
    """
    if num_chirps <= 0:
        raise ConfigurationError(f"num_chirps must be positive, got {num_chirps}")
    pulse = chirp_pulse(design)
    hop = design.samples_per_interval
    needed = (num_chirps - 1) * hop + design.samples_per_chirp
    default_len = num_chirps * hop
    length = max(needed, default_len) if total_samples is None else int(total_samples)
    if length < needed:
        raise ConfigurationError(
            f"total_samples={length} cannot contain {num_chirps} chirps (need >= {needed})"
        )
    grid = np.zeros((num_chirps, hop))
    grid[:, : pulse.size] = pulse
    flat = grid.ravel()
    if length <= flat.size:
        return flat[:length].copy()
    train = np.zeros(length)
    train[: flat.size] = flat
    return train


def matched_filter_planned(signal: np.ndarray, design: ChirpDesign) -> np.ndarray:
    """Matched-filter magnitude of ``signal`` against the cached pulse.

    Bit-identical to the serial
    :func:`repro.signal.chirp.matched_filter` (same FFT size, same
    roll/slice alignment) but the template synthesis and its FFT are
    plan-cache hits after the first call per ``(design, nfft)``.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ValueError("cross_correlate requires non-empty inputs")
    pulse = chirp_pulse(design)
    n = signal.size + pulse.size - 1
    nfft = 1 << (n - 1).bit_length()
    spec = np.fft.rfft(signal, nfft) * matched_filter_spectrum(design, nfft)
    corr = np.roll(np.fft.irfft(spec, nfft), pulse.size - 1)[:n]
    start = pulse.size - 1
    return np.abs(corr[start : start + signal.size])


def rake_cancel_planned(
    segment: np.ndarray,
    design: ChirpDesign,
    *,
    protect_from: int,
    threshold: float,
) -> tuple[np.ndarray, int]:
    """Early-reflection cancellation with plan-cached templates.

    Equivalent to
    :func:`repro.signal.correlation.cancel_early_reflections` with the
    same arguments, but the I/Q template pair and its Gram inverse come
    from the plan cache, so per-event work is the onset search plus a
    few dot products per candidate delay.
    """
    from ..signal.correlation import cancel_early_reflections

    plan = rake_plan(design)
    return cancel_early_reflections(
        segment,
        plan.pulse,
        plan.quad,
        protect_from=protect_from,
        threshold=threshold,
        gram_inv=plan.gram_inv,
    )
