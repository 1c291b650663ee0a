"""Planned, batch-first DSP kernels.

This package is the performance layer of the reproduction.  It splits
every hot DSP operation into a **plan** — the shape- and
config-dependent state (windows, mel filterbanks, frequency grids,
chirp templates, device transfer curves) cached per
``(frozen config, shape)`` key in :mod:`repro.kernels.plan` — and a
**batched execute** step that runs one vectorized NumPy call over a
``(num_chirps | num_frames | num_signals, samples)`` stack instead of
a Python loop.

The serial implementations in :mod:`repro.signal`,
:mod:`repro.features`, and :mod:`repro.simulation` survive as
``*_reference`` functions: they are the executable specification, and
the golden suite in ``tests/kernels`` holds every kernel to a
``<= 1e-10`` max-abs-diff bound against them (bit-identical in the
common case).  ``python -m repro.bench`` times the pipeline stages
built on these kernels (parity, spectrum, rake) over a whole capture
against their oracle loops and records the speedups in
``BENCH_stages.json``.

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

from .chirp import chirp_train_planned, matched_filter_planned
from .framing import frames_dropping_tail, frames_zero_padded
from .mfcc import mfcc_batched, mfcc_planned
from .plan import (
    BandZoomPlan,
    MfccPlan,
    PlanCacheInfo,
    WelchPlan,
    band_zoom_plan,
    chirp_pulse,
    chirp_spectrum,
    clear_plan_cache,
    device_transfer,
    hamming_window,
    hann_window,
    matched_filter_spectrum,
    mfcc_plan,
    plan_cache_info,
    rfft_freqs,
    welch_plan,
)
from .session import apply_device_planned, synthesize_train
from .spectral import band_zoom_amplitude, batched_power_rows, welch_periodograms

__all__ = [
    "chirp_train_planned",
    "matched_filter_planned",
    "frames_dropping_tail",
    "frames_zero_padded",
    "mfcc_batched",
    "mfcc_planned",
    "BandZoomPlan",
    "MfccPlan",
    "PlanCacheInfo",
    "WelchPlan",
    "band_zoom_plan",
    "chirp_pulse",
    "chirp_spectrum",
    "clear_plan_cache",
    "device_transfer",
    "hamming_window",
    "hann_window",
    "matched_filter_spectrum",
    "mfcc_plan",
    "plan_cache_info",
    "rfft_freqs",
    "welch_plan",
    "apply_device_planned",
    "synthesize_train",
    "band_zoom_amplitude",
    "batched_power_rows",
    "welch_periodograms",
]
