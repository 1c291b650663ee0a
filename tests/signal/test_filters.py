"""Tests for the from-scratch Butterworth designs against SciPy oracles."""

import numpy as np
import pytest
from scipy import signal as scipy_signal

from repro.errors import ConfigurationError
from repro.signal.filters import (
    butterworth_bandpass,
    sos_frequency_response,
    sosfilt,
    sosfilt_reference,
    sosfiltfilt,
)

FS = 48_000.0


class TestDesignAgainstScipy:
    @pytest.mark.parametrize("order", [1, 2, 4, 5])
    def test_bandpass_response_matches(self, order):
        mine = butterworth_bandpass(order, 15_000.0, 21_000.0, FS)
        ref = scipy_signal.butter(
            order, [15_000.0, 21_000.0], btype="bandpass", fs=FS, output="sos"
        )
        freqs = np.linspace(100.0, 23_000.0, 400)
        np.testing.assert_allclose(
            np.abs(mine.response(freqs)),
            np.abs(sos_frequency_response(ref, freqs, FS)),
            atol=1e-10,
        )


class TestDesignProperties:
    def test_bandpass_passband_near_unity(self):
        design = butterworth_bandpass(4, 15_000.0, 21_000.0, FS)
        center = np.abs(design.response(np.array([18_000.0])))[0]
        assert center == pytest.approx(1.0, abs=0.01)

    def test_bandpass_edges_at_half_power(self):
        design = butterworth_bandpass(4, 15_000.0, 21_000.0, FS)
        edges = np.abs(design.response(np.array([15_000.0, 21_000.0])))
        np.testing.assert_allclose(edges, np.sqrt(0.5), atol=0.01)

    def test_bandpass_stopband_attenuates(self):
        design = butterworth_bandpass(4, 15_000.0, 21_000.0, FS)
        stop = np.abs(design.response(np.array([5_000.0, 23_500.0])))
        assert np.all(stop < 0.01)

    def test_sos_poles_inside_unit_circle(self):
        design = butterworth_bandpass(4, 15_000.0, 21_000.0, FS)
        for section in design.sos:
            poles = np.roots(section[3:])
            assert np.all(np.abs(poles) < 1.0)

    def test_invalid_orders_and_edges(self):
        with pytest.raises(ConfigurationError):
            butterworth_bandpass(0, 15_000.0, 21_000.0, FS)
        with pytest.raises(ConfigurationError):
            butterworth_bandpass(4, 15_000.0, 25_000.0, FS)  # above Nyquist
        with pytest.raises(ConfigurationError):
            butterworth_bandpass(4, 21_000.0, 15_000.0, FS)  # inverted
        with pytest.raises(ConfigurationError):
            butterworth_bandpass(4, 0.0, 15_000.0, FS)


class TestFiltering:
    def test_reference_matches_fast_path(self, rng):
        design = butterworth_bandpass(4, 15_000.0, 21_000.0, FS)
        x = rng.standard_normal(300)
        np.testing.assert_allclose(
            sosfilt(design.sos, x), sosfilt_reference(design.sos, x), atol=1e-12
        )

    def test_fast_path_matches_scipy(self, rng):
        design = butterworth_bandpass(3, 15_000.0, 21_000.0, FS)
        x = rng.standard_normal(500)
        np.testing.assert_allclose(
            sosfilt(design.sos, x), scipy_signal.sosfilt(design.sos, x), atol=1e-12
        )

    def test_filter_removes_out_of_band_tone(self):
        design = butterworth_bandpass(4, 15_000.0, 21_000.0, FS)
        t = np.arange(4800) / FS
        low_tone = np.sin(2 * np.pi * 2_000.0 * t)
        filtered = design.apply(low_tone)
        assert np.sqrt(np.mean(filtered[500:] ** 2)) < 0.01

    def test_filter_passes_in_band_tone(self):
        design = butterworth_bandpass(4, 15_000.0, 21_000.0, FS)
        t = np.arange(4800) / FS
        tone = np.sin(2 * np.pi * 18_000.0 * t)
        filtered = design.apply(tone)
        assert np.sqrt(np.mean(filtered[500:] ** 2)) == pytest.approx(
            np.sqrt(0.5), rel=0.05
        )

    def test_empty_signal(self):
        design = butterworth_bandpass(2, 15_000.0, 21_000.0, FS)
        assert sosfilt(design.sos, np.array([])).size == 0
        assert sosfiltfilt(design.sos, np.array([])).size == 0

    def test_zero_phase_has_no_delay(self):
        design = butterworth_bandpass(4, 15_000.0, 21_000.0, FS)
        t = np.arange(2400) / FS
        tone = np.sin(2 * np.pi * 18_000.0 * t)
        zero_phase = design.apply_zero_phase(tone)
        # Zero-phase output stays aligned: correlation at zero lag is
        # near the maximum over nearby lags.
        interior = slice(600, 1800)
        zero_lag = float(np.dot(tone[interior], zero_phase[interior]))
        shifted = float(np.dot(tone[interior], np.roll(zero_phase, 3)[interior]))
        assert zero_lag > shifted

    def test_zero_phase_squares_magnitude(self):
        design = butterworth_bandpass(2, 15_000.0, 21_000.0, FS)
        t = np.arange(9600) / FS
        tone = np.sin(2 * np.pi * 15_500.0 * t)
        once = design.apply(tone)
        twice = design.apply_zero_phase(tone)
        gain_once = np.sqrt(np.mean(once[2000:-2000] ** 2)) / np.sqrt(0.5)
        gain_twice = np.sqrt(np.mean(twice[2000:-2000] ** 2)) / np.sqrt(0.5)
        assert gain_twice == pytest.approx(gain_once**2, rel=0.05)
