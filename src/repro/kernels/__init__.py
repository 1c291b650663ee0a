"""Planned, batch-first DSP kernels.

This package is the performance layer of the reproduction.  It splits
every hot DSP operation into a **plan** — the shape- and
config-dependent state (windows, mel filterbanks, frequency grids,
chirp templates, device transfer curves) cached per
``(frozen config, shape)`` key in :mod:`repro.kernels.plan` — and a
**batched execute** step that runs one vectorized NumPy call over a
``(num_chirps | num_frames | num_signals, samples)`` stack instead of
a Python loop.

A kernel lives here only while a capture, a simulation or the quality
gate runs it: session synthesis and device colouring
(:mod:`~repro.kernels.session`), the matched filter and the rake
(:mod:`~repro.kernels.chirp`), MFCC (:mod:`~repro.kernels.mfcc`) and the
band-zoom absorption spectrum (:mod:`~repro.kernels.spectral`).  Each
keeps the serial implementation it replaced in :mod:`repro.signal`,
:mod:`repro.features` or :mod:`repro.simulation` as its oracle, and the
golden suite in ``tests/kernels`` holds the pair to a ``<= 1e-10``
max-abs-diff bound (bit-identical in the common case).  An operation
that nothing runs in bulk has one implementation and no kernel, and
one that nothing runs at all is deleted.  ``python -m repro.bench`` times
the pipeline stages built on these kernels (parity, spectrum, rake)
over a whole capture against their oracle loops.

There is one numeric lane: every kernel computes in float64 /
complex128.  The one kernel that is not bit-identical to its oracle is
the band-zoom DFT behind ``EarSonarPipeline.absorption_curves``
(:func:`band_zoom_amplitude`): it evaluates only the probe-band bins,
matches the per-echo full-FFT ``absorption_curve`` to ~1e-15 (the
golden bound is 1e-10), and ``tests/core/test_band_zoom_verdicts.py``
checks that detector verdicts do not change.  The batched rake
(:func:`~repro.kernels.chirp.rake_cancel_batched`) chooses its taps
with lag-table arithmetic, which rounds differently from the dense
``cancel_early_reflections`` oracle, then re-fits the winner densely;
its tests hold every event to the oracle's tap count and a cleaned
segment within 1e-9 (bit-identical on every event tried), and the same
verdict test covers it.

The plan cache is module-level state, so the runtime's process-pool
workers build each plan once per worker process and reuse it across
their whole batch.
"""

from .chirp import matched_filter_planned
from .mfcc import frames_zero_padded, mfcc_planned
from .plan import (
    BandZoomPlan,
    MfccPlan,
    band_zoom_plan,
    chirp_pulse,
    chirp_spectrum,
    clear_plan_cache,
    device_transfer,
    hamming_window,
    matched_filter_spectrum,
    mfcc_plan,
    rfft_freqs,
)
from .session import apply_device_planned, synthesize_train
from .spectral import band_zoom_amplitude, batched_power_rows

__all__ = [
    "matched_filter_planned",
    "frames_zero_padded",
    "mfcc_planned",
    "BandZoomPlan",
    "MfccPlan",
    "band_zoom_plan",
    "chirp_pulse",
    "chirp_spectrum",
    "clear_plan_cache",
    "device_transfer",
    "hamming_window",
    "matched_filter_spectrum",
    "mfcc_plan",
    "rfft_freqs",
    "apply_device_planned",
    "synthesize_train",
    "band_zoom_amplitude",
    "batched_power_rows",
]
