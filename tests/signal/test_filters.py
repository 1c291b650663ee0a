"""Tests for the from-scratch Butterworth designs against SciPy oracles."""

import numpy as np
import pytest
from scipy import signal as scipy_signal

from repro.errors import ConfigurationError
from repro.signal.filters import (
    butterworth_bandpass,
    first_order_iir,
    sos_frequency_response,
    sosfilt,
    sosfilt_reference,
)
from repro.simulation import SessionConfig, record_session, sample_participant

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


@pytest.fixture(scope="module")
def captures():
    """Seeded raw 0.1 s and 1 s captures, and white noise."""
    rng = np.random.default_rng(3131)
    waveforms = []
    for duration_s in (0.1, 1.0):
        participant = sample_participant(rng, f"F{duration_s}", total_days=30)
        session = SessionConfig(duration_s=duration_s)
        waveforms.append(record_session(participant, 4.0, session, rng).waveform)
    waveforms.append(rng.standard_normal(20_000))
    return waveforms


def _peak_relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestOverlapSaveAgainstScipy:
    """The overlap-save ``sosfilt`` within 1e-13 of the output's peak."""

    @pytest.mark.parametrize("order", [1, 2, 4, 5])
    def test_matches_scipy_sosfilt(self, captures, order):
        design = butterworth_bandpass(order, 15_000.0, 21_000.0, FS)
        for x in captures:
            want = scipy_signal.sosfilt(design.sos, x)
            assert _peak_relative_error(sosfilt(design.sos, x), want) <= 1e-13

    def test_inputs_shorter_than_one_block(self, captures):
        design = butterworth_bandpass(4, 15_000.0, 21_000.0, FS)
        for x in (captures[0][:1], captures[0][:497], captures[0][:1551], captures[0][:1552]):
            want = scipy_signal.sosfilt(design.sos, x)
            assert _peak_relative_error(sosfilt(design.sos, x), want) <= 1e-13

    def test_unstable_cascade_is_refused(self):
        with pytest.raises(ConfigurationError):
            sosfilt(np.array([[1.0, 0.0, 0.0, 1.0, -1.0, 0.0]]), np.ones(8))


def _lfilter(x, gain, pole, initial):
    zi = scipy_signal.lfiltic([gain], [1.0, -pole], y=[initial])
    return scipy_signal.lfilter([gain], [1.0, -pole], x, zi=zi)[0]


class TestFirstOrderAgainstScipy:
    """The blocked one-pole kernel against ``lfilter`` seeded by ``lfiltic``."""

    @pytest.mark.parametrize("window", [1, 5, 48, 200, 5000])
    def test_non_negative_input_within_rtol(self, captures, window):
        alpha = 1.0 / window
        for raw in captures:
            for x in (np.square(raw), np.square(raw[:1]), np.square(raw[:700])):
                got = first_order_iir(x, alpha, 1.0 - alpha, initial=float(x[0]))
                want = _lfilter(x, alpha, 1.0 - alpha, float(x[0]))
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("window", [1, 5, 48, 200, 5000])
    def test_signed_input_within_peak_bound(self, captures, window):
        alpha = 1.0 / window
        for raw in captures:
            for x in (raw, raw[:1], raw[:700]):
                got = first_order_iir(x, alpha, 1.0 - alpha, initial=0.25)
                want = _lfilter(x, alpha, 1.0 - alpha, 0.25)
                assert _peak_relative_error(got, want) <= 1e-13

    def test_motion_rumble_pole(self, captures):
        pole = np.exp(-2.0 * np.pi * 150.0 / FS)
        x = captures[2]
        got = first_order_iir(x, 1.0 - pole, pole)
        assert _peak_relative_error(got, _lfilter(x, 1.0 - pole, pole, 0.0)) <= 1e-13

    @pytest.mark.parametrize("pole", [-0.5, 1.0, 1.5])
    def test_pole_outside_unit_interval_is_refused(self, pole):
        with pytest.raises(ValueError):
            first_order_iir(np.ones(4), 1.0, pole)
