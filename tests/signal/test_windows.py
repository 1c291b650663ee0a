"""Tests for repro.signal.windows against SciPy oracles and invariants."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import windows as scipy_windows

from repro.signal.windows import hamming, hann


class TestAgainstScipy:
    @pytest.mark.parametrize("length", [2, 3, 16, 17, 128])
    def test_hann_matches_scipy(self, length):
        np.testing.assert_allclose(
            hann(length), scipy_windows.hann(length, sym=True), atol=1e-12
        )

    @pytest.mark.parametrize("length", [2, 16, 129])
    def test_hann_periodic_matches_scipy(self, length):
        np.testing.assert_allclose(
            hann(length, periodic=True), scipy_windows.hann(length, sym=False), atol=1e-12
        )

    @pytest.mark.parametrize("length", [2, 16, 65])
    def test_hamming_matches_scipy_general_hamming(self, length):
        # SciPy's classic hamming uses 0.54; our 25/46 variant matches
        # scipy.signal.windows.general_hamming(25/46).
        np.testing.assert_allclose(
            hamming(length),
            scipy_windows.general_hamming(length, 25.0 / 46.0, sym=True),
            atol=1e-12,
        )


class TestInvariants:
    @given(st.integers(min_value=2, max_value=256))
    def test_hann_is_symmetric(self, length):
        w = hann(length)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)

    @given(st.integers(min_value=2, max_value=256))
    def test_hann_bounded_zero_one(self, length):
        w = hann(length)
        assert np.all(w >= -1e-12)
        assert np.all(w <= 1.0 + 1e-12)

    def test_hann_endpoints_zero(self):
        w = hann(33)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[-1] == pytest.approx(0.0, abs=1e-12)

    def test_length_zero_and_one(self):
        assert hann(0).size == 0
        np.testing.assert_allclose(hann(1), [1.0])

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            hann(-1)


class TestHelpers:
    def test_coherent_gain_hann_is_half(self):
        assert np.mean(hann(4096, periodic=True)) == pytest.approx(0.5, rel=1e-3)

    def test_enbw_hann_is_1_5(self):
        w = hann(4096, periodic=True)
        assert w.size * np.sum(w**2) / np.sum(w) ** 2 == pytest.approx(1.5, rel=1e-3)
