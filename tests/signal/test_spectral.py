"""Tests for spectral analysis helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.signal.spectral import (
    Spectrum,
    amplitude_spectrum,
    band_energy,
    normalize_spectrum,
    power_spectrum,
    spectral_correlation,
    welch_psd,
)

FS = 48_000.0


class TestAmplitudeSpectrum:
    def test_sine_peak_location_and_height(self):
        t = np.arange(4800) / FS
        tone = 0.8 * np.sin(2 * np.pi * 18_000.0 * t)
        spec = amplitude_spectrum(tone, FS)
        peak_idx = np.argmax(spec.values)
        assert spec.frequencies[peak_idx] == pytest.approx(18_000.0, abs=spec.resolution)
        # One-sided |FFT|/N puts amplitude/2 at the positive-frequency bin.
        assert spec.values[peak_idx] == pytest.approx(0.4, rel=0.01)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            amplitude_spectrum(np.array([]), FS)

    def test_band_restriction(self):
        t = np.arange(4800) / FS
        spec = amplitude_spectrum(np.sin(2 * np.pi * 1_000.0 * t), FS)
        band = spec.band(16_000.0, 20_000.0)
        assert np.all(band.frequencies >= 16_000.0)
        assert np.all(band.frequencies <= 20_000.0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(np.arange(4.0), np.arange(5.0))


class TestPowerSpectrum:
    def test_parseval(self, rng):
        x = rng.standard_normal(1024)
        spec = power_spectrum(x, FS)
        assert np.sum(spec.values) == pytest.approx(np.mean(x**2), rel=1e-9)

    @given(st.integers(min_value=3, max_value=400))
    def test_parseval_any_length(self, n):
        x = np.sin(np.arange(n) * 0.7) + 0.3
        spec = power_spectrum(x, FS)
        assert np.sum(spec.values) == pytest.approx(np.mean(x**2), rel=1e-9)


class TestWelch:
    def test_white_noise_flat(self, rng):
        x = rng.standard_normal(48_000)
        psd = welch_psd(x, FS, segment_length=512)
        interior = psd.values[5:-5]
        assert np.std(interior) / np.mean(interior) < 0.3

    def test_integral_approximates_power(self, rng):
        x = rng.standard_normal(48_000)
        psd = welch_psd(x, FS, segment_length=512)
        total = np.sum(psd.values) * psd.resolution
        assert total == pytest.approx(np.mean(x**2), rel=0.1)

    def test_tone_peak(self):
        t = np.arange(48_000) / FS
        x = np.sin(2 * np.pi * 18_000.0 * t)
        psd = welch_psd(x, FS, segment_length=1024)
        peak = psd.frequencies[np.argmax(psd.values)]
        assert peak == pytest.approx(18_000.0, abs=psd.resolution)

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            welch_psd(np.ones(100), FS, overlap=1.0)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(np.array([]), FS)

    def test_short_signal_uses_full_length(self):
        psd = welch_psd(np.ones(64), FS, segment_length=256)
        assert psd.frequencies.size == 33


class TestHelpers:
    def test_band_energy(self):
        spec = Spectrum(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))
        assert band_energy(spec, 2.0, 3.0) == pytest.approx(5.0)

    def test_normalize_peak_is_one(self, rng):
        spec = Spectrum(np.arange(10.0), rng.uniform(0.1, 5.0, 10))
        assert np.max(normalize_spectrum(spec).values) == pytest.approx(1.0)

    def test_normalize_zero_spectrum_unchanged(self):
        spec = Spectrum(np.arange(4.0), np.zeros(4))
        np.testing.assert_allclose(normalize_spectrum(spec).values, np.zeros(4))

    def test_spectral_correlation_self_is_one(self, rng):
        x = rng.standard_normal(64)
        assert spectral_correlation(x, x) == pytest.approx(1.0)

    def test_spectral_correlation_negated_is_minus_one(self, rng):
        x = rng.standard_normal(64)
        assert spectral_correlation(x, -x) == pytest.approx(-1.0)

    def test_spectral_correlation_constant_is_zero(self):
        assert spectral_correlation(np.ones(10), np.arange(10.0)) == 0.0

    def test_spectral_correlation_shape_mismatch(self):
        with pytest.raises(ValueError):
            spectral_correlation(np.ones(5), np.ones(6))
