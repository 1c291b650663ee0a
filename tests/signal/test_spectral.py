"""Tests for amplitude spectra and the Spectrum container."""

import numpy as np
import pytest

from repro.signal.spectral import Spectrum, amplitude_spectrum

FS = 48_000.0


class TestAmplitudeSpectrum:
    def test_sine_peak_location_and_height(self):
        t = np.arange(4800) / FS
        tone = 0.8 * np.sin(2 * np.pi * 18_000.0 * t)
        spec = amplitude_spectrum(tone, FS)
        peak_idx = np.argmax(spec.values)
        step = spec.frequencies[1] - spec.frequencies[0]
        assert spec.frequencies[peak_idx] == pytest.approx(18_000.0, abs=step)
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


class TestHelpers:
    def test_band_energy(self):
        spec = Spectrum(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.sum(spec.band(2.0, 3.0).values) == pytest.approx(5.0)
