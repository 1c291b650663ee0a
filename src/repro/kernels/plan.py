"""Plan layer: shape-keyed caches of everything the kernels precompute.

A *plan* is the immutable, precomputable half of a DSP operation: the
Hamming window for a frame length, the mel filterbank for an MFCC
configuration, the ``rfftfreq`` grid for an FFT size, the chirp pulse
and its spectrum for a :class:`~repro.signal.chirp.ChirpDesign`, the
device transfer curve for an earphone.  Building these per call is what
made the serial implementations slow; building them once per
``(config, shape)`` key and executing batched kernels against them is
the whole point of :mod:`repro.kernels`.

Keys are the frozen config dataclasses themselves plus the relevant
shape parameters.  Frozen-dataclass equality is field-by-field, i.e.
the in-process analogue of ``EarSonarConfig.fingerprint()``: two equal
configs share a plan, two configs differing anywhere do not.  The cache
is a module-level dict, so process-pool workers (which import this
module fresh) build each plan once per worker process and reuse it
across the worker's whole batch — the same pattern as the runtime's
``_WORKER_PIPELINES`` registry, and module-level by design so the QA003
pool-safety rule keeps holding.

All cached arrays are marked read-only before they are handed out;
kernels must copy before mutating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:  # imported for annotations only; avoids import cycles
    from ..signal.chirp import ChirpDesign
    from ..signal.mfcc import MfccConfig
    from ..simulation.earphone import EarphoneModel

__all__ = [
    "clear_plan_cache",
    "cached_plan",
    "rfft_freqs",
    "hamming_window",
    "chirp_pulse",
    "chirp_spectrum",
    "matched_filter_spectrum",
    "MfccPlan",
    "mfcc_plan",
    "device_transfer",
    "BandZoomPlan",
    "band_zoom_plan",
    "RakePlan",
    "rake_plan",
]

#: Soft capacity of the plan cache.  Plans are small (windows, filter
#: matrices, one-pulse spectra), but a pathological sweep over thousands
#: of configs should not grow memory without bound; insertion order
#: doubles as an eviction order.
_MAX_ENTRIES = 512

_CACHE: dict[tuple[Hashable, ...], Any] = {}


def clear_plan_cache() -> None:
    """Drop every cached plan (test isolation, cold-start benchmarks)."""
    _CACHE.clear()


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only so cached plans cannot be corrupted."""
    array.flags.writeable = False
    return array


def cached_plan(key: tuple[Hashable, ...], build: Callable[[], Any]) -> Any:
    """Return the plan under ``key``, building and caching it on a miss.

    The builder runs at most once per key per process (modulo benign
    races under free-threading); arrays inside the built plan should
    already be read-only.
    """
    plan = _CACHE.get(key)
    if plan is not None:
        return plan
    plan = build()
    if len(_CACHE) >= _MAX_ENTRIES:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = plan
    return plan


# ---------------------------------------------------------------------------
# Elementary shared plans
# ---------------------------------------------------------------------------


def rfft_freqs(nfft: int, sample_rate: float) -> np.ndarray:
    """Cached one-sided FFT frequency grid ``rfftfreq(nfft, 1/rate)``."""

    def build() -> np.ndarray:
        return _freeze(np.fft.rfftfreq(nfft, d=1.0 / sample_rate))

    return cached_plan(("rfftfreq", int(nfft), float(sample_rate)), build)


def hamming_window(length: int, *, periodic: bool = False) -> np.ndarray:
    """Cached Hamming window (see :func:`repro.signal.windows.hamming`)."""

    def build() -> np.ndarray:
        from ..signal.windows import hamming

        return _freeze(hamming(length, periodic=periodic))

    return cached_plan(("hamming", int(length), bool(periodic)), build)


# ---------------------------------------------------------------------------
# Chirp plans
# ---------------------------------------------------------------------------


def chirp_pulse(design: "ChirpDesign") -> np.ndarray:
    """Cached synthesised pulse for ``design`` (one per design, not per call)."""

    def build() -> np.ndarray:
        from ..signal.chirp import linear_chirp

        return _freeze(linear_chirp(design))

    return cached_plan(("chirp_pulse", design), build)


def chirp_spectrum(design: "ChirpDesign", nfft: int) -> np.ndarray:
    """Cached ``rfft`` of the design's pulse at FFT size ``nfft``."""

    def build() -> np.ndarray:
        return _freeze(np.fft.rfft(chirp_pulse(design), nfft))

    return cached_plan(("chirp_spectrum", design, int(nfft)), build)


def matched_filter_spectrum(design: "ChirpDesign", nfft: int) -> np.ndarray:
    """Cached conjugate pulse spectrum used by the matched filter."""

    def build() -> np.ndarray:
        return _freeze(np.conj(np.fft.rfft(chirp_pulse(design), nfft)))

    return cached_plan(("matched_filter_spectrum", design, int(nfft)), build)


# ---------------------------------------------------------------------------
# MFCC plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MfccPlan:
    """Precomputed state of MFCC extraction for one :class:`MfccConfig`.

    Attributes
    ----------
    window:
        Hamming analysis window of the frame length.
    filterbank:
        Mel filterbank ``(num_filters, nfft//2 + 1)``; applied as one
        matmul ``power @ filterbank.T`` (kept untransposed so the BLAS
        call is byte-identical to the serial reference's).
    dct_basis:
        Truncated DCT-II basis ``(num_coefficients, num_filters)``.
    dct_scale:
        Orthonormalisation scale of the DCT rows.
    """

    window: np.ndarray
    filterbank: np.ndarray
    dct_basis: np.ndarray
    dct_scale: np.ndarray


def mfcc_plan(config: "MfccConfig") -> MfccPlan:
    """Cached :class:`MfccPlan` for ``config``.

    This hoists the mel filterbank construction (satellite of the plan
    layer: keyed by the frozen ``MfccConfig``, which carries
    ``nfft``/``sample_rate``) and the DCT basis out of every call.
    """

    def build() -> MfccPlan:
        from ..signal.mfcc import dct_basis, mel_filterbank

        bank = mel_filterbank(
            config.num_filters,
            config.nfft,
            config.sample_rate,
            config.low_hz,
            config.high_hz,
        )
        basis, scale = dct_basis(config.num_coefficients, config.num_filters)
        return MfccPlan(
            window=hamming_window(config.frame_length),
            filterbank=_freeze(bank),
            dct_basis=_freeze(basis),
            dct_scale=_freeze(scale),
        )

    return cached_plan(("mfcc", config), build)


# ---------------------------------------------------------------------------
# Rake plans (early-reflection cancellation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RakePlan:
    """Precomputed templates of the orthogonal-least-squares rake.

    Every rake template is the I/Q pair placed whole at some onset, so
    the inner product of two placed templates depends only on the
    difference of their onsets.  The lag table holds those products for
    every overlap, which turns each entry of a trial fit's Gram matrix
    into one lookup; the pair and the table depend only on the chirp
    design, none of the per-event data.

    Attributes
    ----------
    pulse, quad:
        The template pulse and its discrete Hilbert quadrature.
    lags:
        ``(2n - 1, 2, 2)`` lag table for an ``n``-sample pulse:
        ``lags[d + n - 1, a, b] = sum_k t_a[k] * t_b[k - d]`` with
        ``t_0 = pulse`` and ``t_1 = quad``, for ``|d| < n``.  Templates
        ``|d| >= n`` apart do not overlap and their product is 0.
    """

    pulse: np.ndarray
    quad: np.ndarray
    lags: np.ndarray


def rake_plan(design: "ChirpDesign") -> RakePlan:
    """Cached :class:`RakePlan` for ``design``."""

    def build() -> RakePlan:
        from ..signal.correlation import quadrature_pulse

        pulse = chirp_pulse(design)
        quad = _freeze(quadrature_pulse(pulse))
        templates = (pulse, quad)
        lags = np.empty((2 * pulse.size - 1, 2, 2))
        for a, first in enumerate(templates):
            for b, second in enumerate(templates):
                lags[:, a, b] = np.correlate(first, second, mode="full")
        return RakePlan(pulse=pulse, quad=quad, lags=_freeze(lags))

    return cached_plan(("rake", design), build)


# ---------------------------------------------------------------------------
# Device plans
# ---------------------------------------------------------------------------


def device_transfer(earphone: "EarphoneModel", nfft: int, sample_rate: float) -> np.ndarray:
    """Cached earphone transfer curve on the ``nfft`` frequency grid."""

    def build() -> np.ndarray:
        freqs = rfft_freqs(nfft, sample_rate)
        return _freeze(earphone.transfer(freqs))

    return cached_plan(("device", earphone, int(nfft), float(sample_rate)), build)


# ---------------------------------------------------------------------------
# Band-limited zoom-DFT plans (absorption analysis)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandZoomPlan:
    """Precomputed zoom-DFT + interpolation for band-limited spectra.

    The absorption analysis needs only the ~85 FFT bins inside the
    probe band out of ``nfft//2 + 1`` (4097 at the default sizes), so
    evaluating a direct DFT at exactly those bins — one
    ``(samples, 2 * band_bins)`` real matrix product — takes ~2.5x less
    time than a full ``rfft`` at the default sizes, even without BLAS.
    The plan also bakes in the band-to-grid linear interpolation as
    gather indices plus clamped weights with ``np.interp``'s edge
    semantics (outside-band grid points clamp to the edge bins).

    Attributes
    ----------
    matrix:
        ``[cos(2*pi*k*t/nfft) | sin(2*pi*k*t/nfft)]`` for the band bins
        ``k`` and the first ``min(samples, nfft)`` sample indices ``t``
        (an ``nfft``-point ``rfft`` crops longer inputs the same way).
        A real input's products with the two halves are the real part
        and the negated imaginary part of its DFT at those bins.
    scale:
        Amplitude normalisation ``1 / samples``.
    lo, hi:
        Gather indices into the band bins for each grid point.
    weight:
        Interpolation weight of ``hi`` per grid point, clamped to
        ``[0, 1]`` so edge grid points clamp instead of extrapolating.
    """

    matrix: np.ndarray
    scale: float
    lo: np.ndarray
    hi: np.ndarray
    weight: np.ndarray


def band_zoom_plan(
    num_samples: int, nfft: int, sample_rate: float, grid: np.ndarray
) -> BandZoomPlan:
    """Cached :class:`BandZoomPlan` for ``num_samples``-long signals.

    The band is every ``nfft``-point FFT bin inside
    ``[grid[0], grid[-1] + 1]`` Hz, the same bins
    :meth:`repro.signal.spectral.Spectrum.band` keeps.  The grid is
    assumed uniform (it comes from
    ``FeatureVectorConfig.frequency_grid``), so the cache key only
    needs its endpoints and size.  Raises
    :class:`~repro.errors.ConfigurationError` when fewer than two bins
    fall inside the band: there is nothing to interpolate between.
    """
    grid = np.asarray(grid)
    key = (
        "band_zoom",
        int(num_samples),
        int(nfft),
        float(sample_rate),
        int(grid.size),
        float(grid[0]),
        float(grid[-1]),
    )

    def build() -> BandZoomPlan:
        freqs = rfft_freqs(nfft, sample_rate)
        mask = (freqs >= grid[0]) & (freqs <= grid[-1] + 1.0)
        band = freqs[mask]
        if band.size < 2:
            raise ConfigurationError(
                f"probe band {grid[0]:g}-{grid[-1]:g} Hz holds {band.size} FFT "
                f"bin(s) at {sample_rate:g} Hz with nfft={nfft}; need at least 2"
            )
        # Reducing k*t modulo nfft keeps every phase argument in
        # [0, 2*pi), so the twiddles are as accurate as the FFT's own.
        t = np.arange(min(int(num_samples), int(nfft)))[:, None]
        k = np.flatnonzero(mask)[None, :]
        phase = (2.0 * np.pi / nfft) * ((t * k) % nfft)
        matrix = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
        # np.interp semantics: right-bisect, then clamp both the cell
        # index and the in-cell weight so out-of-band grid points take
        # the edge bin's value instead of extrapolating.
        hi = np.clip(np.searchsorted(band, grid, side="right"), 1, band.size - 1)
        lo = hi - 1
        weight = np.clip((grid - band[lo]) / (band[hi] - band[lo]), 0.0, 1.0)
        return BandZoomPlan(
            matrix=_freeze(matrix),
            scale=1.0 / num_samples,
            lo=_freeze(lo),
            hi=_freeze(hi),
            weight=_freeze(weight),
        )

    return cached_plan(key, build)
