"""Tests for FFT-based resampling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.signal.resample import upsample


class TestUpsample:
    def test_factor_one_is_copy(self, rng):
        x = rng.standard_normal(32)
        out = upsample(x, 1)
        np.testing.assert_allclose(out, x)
        assert out is not x

    def test_preserves_original_samples(self):
        """Band-limited interpolation passes through the input points."""
        t = np.arange(64)
        x = np.sin(2 * np.pi * 5 * t / 64.0)  # periodic, band-limited
        up = upsample(x, 4)
        np.testing.assert_allclose(up[::4], x, atol=1e-9)

    def test_sine_fidelity_between_samples(self):
        n, factor = 128, 8
        k = 9  # cycles per record
        t = np.arange(n)
        x = np.sin(2 * np.pi * k * t / n)
        up = upsample(x, factor)
        t_fine = np.arange(n * factor) / factor
        expected = np.sin(2 * np.pi * k * t_fine / n)
        np.testing.assert_allclose(up, expected, atol=1e-9)

    def test_length(self, rng):
        assert upsample(rng.standard_normal(50), 8).size == 400

    @pytest.mark.parametrize("factor", [1, 3, 8])
    @pytest.mark.parametrize("n", [31, 32])
    def test_rows_match_one_dimensional_calls(self, rng, factor, n):
        stack = rng.standard_normal((4, n))
        up = upsample(stack, factor)
        assert up.shape == (4, n * factor)
        for row, expected in zip(up, stack):
            np.testing.assert_array_equal(row, upsample(expected, factor))

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            upsample(np.ones(4), 0)
        with pytest.raises(ConfigurationError):
            upsample(np.array([]), 2)
