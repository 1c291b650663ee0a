"""Golden equivalence: band-zoom and MFCC kernels vs serial oracles.

Each kernel must match its serial oracle (``mfcc_reference``; for the
band-zoom DFT, the per-row full-FFT amplitude spectrum) to <= 1e-10 max
absolute difference over randomized shapes and configurations
(threaded ``np.random.Generator`` seeds keep the sweep reproducible).
"""

import numpy as np
import pytest

from repro.kernels.plan import band_zoom_plan
from repro.kernels.spectral import band_zoom_amplitude
from repro.signal.mfcc import MfccConfig, mfcc, mfcc_reference
from repro.signal.spectral import amplitude_spectrum

TOL = 1e-10


def _band_reference(row, rate, nfft, grid):
    """The per-echo oracle: full FFT, band slice, then ``np.interp``."""
    band = amplitude_spectrum(row, rate, nfft=nfft).band(grid[0], grid[-1] + 1.0)
    return np.interp(grid, band.frequencies, band.values)


@pytest.mark.parametrize("seed,rows,cols", [(5, 1, 64), (6, 7, 1000), (7, 40, 4096)])
@pytest.mark.parametrize("nfft", [None, 8192])
def test_batched_amplitude_matches_per_row(seed, rows, cols, nfft):
    """Band-zoom rows equal the per-row full-FFT band spectrum on the grid.

    The 16-20 kHz grid starts below the first band bin and ends above
    the last one, so the clamped edges of the interpolation are covered
    too.
    """
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((rows, cols))
    n = cols if nfft is None else nfft
    grid = np.linspace(16_000.0, 20_000.0, 37)
    values = band_zoom_amplitude(stack, band_zoom_plan(cols, n, 48_000.0, grid))
    assert values.shape == (rows, grid.size)
    for i in range(rows):
        expected = _band_reference(stack[i], 48_000.0, n, grid)
        assert np.max(np.abs(values[i] - expected)) <= TOL


def test_band_zoom_crops_inputs_longer_than_nfft():
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((3, 700))
    grid = np.linspace(16_000.0, 20_000.0, 16)
    values = band_zoom_amplitude(stack, band_zoom_plan(700, 512, 48_000.0, grid))
    for i in range(3):
        expected = _band_reference(stack[i], 48_000.0, 512, grid)
        assert np.max(np.abs(values[i] - expected)) <= TOL


_CONFIGS = [
    MfccConfig(),
    MfccConfig(
        sample_rate=384_000.0,
        frame_length=256,
        frame_hop=128,
        nfft=1024,
        num_filters=20,
        num_coefficients=17,
        low_hz=15_000.0,
        high_hz=21_000.0,
    ),
    MfccConfig(frame_length=200, frame_hop=80, nfft=512, num_filters=18, num_coefficients=9),
]


@pytest.mark.parametrize("config", _CONFIGS)
@pytest.mark.parametrize("seed,n", [(8, 64), (9, 512), (10, 5000)])
def test_mfcc_matches_reference(config, seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    fast = mfcc(x, config)
    slow = mfcc_reference(x, config)
    assert fast.shape == slow.shape
    assert np.max(np.abs(fast - slow)) <= TOL


def test_mfcc_shorter_than_frame_matches_reference():
    rng = np.random.default_rng(11)
    config = MfccConfig()
    x = rng.standard_normal(config.frame_length // 3)
    assert np.max(np.abs(mfcc(x, config) - mfcc_reference(x, config))) <= TOL
