"""Tests for the statistical curve descriptors against SciPy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.features.statistics import (
    curve_statistics,
    kurtosis,
    maximum,
    mean,
    minimum,
    skewness,
    spectral_centroid,
    standard_deviation,
)

arrays = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=3,
    max_size=64,
).map(np.array)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAgainstScipy:
    @given(arrays)
    @settings(max_examples=50, deadline=None)
    def test_skewness_matches(self, x):
        ours = skewness(x)
        ref = float(scipy_stats.skew(x))
        if np.isnan(ref):
            # SciPy refuses near-constant data; no oracle available.
            assert np.isfinite(ours)
        else:
            assert ours == pytest.approx(ref, abs=1e-8)

    @given(arrays)
    @settings(max_examples=50, deadline=None)
    def test_kurtosis_matches(self, x):
        ours = kurtosis(x)
        ref = float(scipy_stats.kurtosis(x, fisher=True))
        if np.isnan(ref):
            # SciPy refuses near-constant data; no oracle available.
            assert np.isfinite(ours)
        else:
            assert ours == pytest.approx(ref, abs=1e-8)


class TestBasics:
    def test_simple_moments(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert mean(x) == 2.5
        assert standard_deviation(x) == pytest.approx(np.std(x))
        assert minimum(x) == 1.0
        assert maximum(x) == 4.0

    def test_symmetric_has_zero_skew(self):
        assert skewness(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == pytest.approx(0.0)

    def test_constant_input_defines_zero(self):
        assert skewness(np.full(8, 3.0)) == 0.0
        assert kurtosis(np.full(8, 3.0)) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean(np.array([]))

    def test_centroid_uniform_is_middle(self):
        assert spectral_centroid(np.ones(11)) == pytest.approx(5.0)

    def test_centroid_weights_toward_peak(self):
        x = np.zeros(11)
        x[8] = 1.0
        assert spectral_centroid(x) == pytest.approx(8.0)

    def test_centroid_with_frequencies(self):
        values = np.array([0.0, 1.0, 0.0])
        freqs = np.array([10.0, 20.0, 30.0])
        assert spectral_centroid(values, freqs) == pytest.approx(20.0)

    def test_centroid_zero_signal_returns_mean_frequency(self):
        assert spectral_centroid(np.zeros(5)) == pytest.approx(2.0)

    def test_centroid_shape_mismatch(self):
        with pytest.raises(ValueError):
            spectral_centroid(np.ones(4), np.ones(5))


class TestCurveStatistics:
    def test_length_and_order(self):
        stats = curve_statistics(np.array([1.0, 3.0, 2.0]))
        assert stats.size == 7

    def test_values_match_components(self, rng):
        x = rng.uniform(0.0, 1.0, 32)
        stats = curve_statistics(x)
        assert stats[0] == pytest.approx(mean(x))
        assert stats[1] == pytest.approx(standard_deviation(x))
        assert stats[2] == pytest.approx(maximum(x))
        assert stats[3] == pytest.approx(minimum(x))
        assert stats[4] == pytest.approx(skewness(x))
        assert stats[5] == pytest.approx(kurtosis(x))
        assert stats[6] == pytest.approx(spectral_centroid(x))
