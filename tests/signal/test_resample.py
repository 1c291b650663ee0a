"""Tests for FFT-based resampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.signal.resample import downsample, resample_to, upsample


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


class TestDownsample:
    def test_roundtrip_bandlimited(self):
        n = 64
        t = np.arange(n)
        x = np.sin(2 * np.pi * 3 * t / n) + 0.5 * np.cos(2 * np.pi * 5 * t / n)
        round_tripped = downsample(upsample(x, 4), 4)
        np.testing.assert_allclose(round_tripped, x, atol=1e-9)

    def test_length(self, rng):
        assert downsample(rng.standard_normal(100), 4).size == 25

    def test_too_short_raises(self):
        with pytest.raises(ConfigurationError):
            downsample(np.ones(3), 4)


class TestResampleTo:
    @given(st.integers(min_value=8, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_output_length(self, target):
        x = np.sin(np.arange(64) * 0.3)
        assert resample_to(x, target).size == target

    def test_same_length_is_copy(self, rng):
        x = rng.standard_normal(32)
        out = resample_to(x, 32)
        np.testing.assert_allclose(out, x)

    def test_agrees_with_upsample_for_integer_ratio(self):
        n = 64
        x = np.sin(2 * np.pi * 4 * np.arange(n) / n)
        np.testing.assert_allclose(resample_to(x, 4 * n), upsample(x, 4), atol=1e-9)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            resample_to(np.ones(8), 0)
