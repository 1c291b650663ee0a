"""Tests for the FMCW chirp design and synthesis."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels.chirp import matched_filter_planned
from repro.signal.chirp import (
    ChirpDesign,
    cross_correlate,
    linear_chirp,
)


class TestChirpDesign:
    def test_paper_defaults(self):
        design = ChirpDesign()
        assert design.start_frequency == 16_000.0
        assert design.end_frequency == 20_000.0
        assert design.duration == pytest.approx(0.5e-3)
        assert design.interval == pytest.approx(5e-3)
        assert design.sample_rate == 48_000.0

    def test_samples_per_chirp(self):
        assert ChirpDesign().samples_per_chirp == 24

    def test_samples_per_interval(self):
        assert ChirpDesign().samples_per_interval == 240

    def test_sweep_rate(self):
        assert ChirpDesign().sweep_rate == pytest.approx(4_000.0 / 0.5e-3)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ConfigurationError):
            ChirpDesign(start_frequency=22_000.0, bandwidth=4_000.0)

    def test_overlapping_chirps_rejected(self):
        with pytest.raises(ConfigurationError):
            ChirpDesign(duration=6e-3, interval=5e-3)

    @pytest.mark.parametrize("field, value", [
        ("sample_rate", 0.0),
        ("start_frequency", -1.0),
        ("bandwidth", 0.0),
        ("duration", 0.0),
        ("amplitude", 0.0),
    ])
    def test_invalid_scalars_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            ChirpDesign(**{field: value})


class TestLinearChirp:
    def test_length(self):
        assert linear_chirp(ChirpDesign()).size == 24

    def test_amplitude_bounded(self):
        pulse = linear_chirp(ChirpDesign(amplitude=2.0))
        assert np.max(np.abs(pulse)) <= 2.0 + 1e-9

    def test_instantaneous_frequency_sweeps_up(self):
        # Use a long unwindowed chirp so phase differencing is clean.
        design = ChirpDesign(
            sample_rate=48_000.0,
            start_frequency=16_000.0,
            bandwidth=4_000.0,
            duration=0.05,
            interval=0.1,
            windowed=False,
        )
        pulse = linear_chirp(design)
        analytic_phase = np.unwrap(np.angle(_analytic(pulse)))
        inst_freq = np.diff(analytic_phase) * design.sample_rate / (2 * np.pi)
        # Interior samples only (edge effects at the ends).
        interior = inst_freq[100:-100]
        assert interior[0] == pytest.approx(16_000.0, rel=0.02)
        assert interior[-1] == pytest.approx(20_000.0, rel=0.02)
        assert np.all(np.diff(interior) > -50.0)  # monotone up to noise

    def test_windowed_pulse_tapers_to_zero(self):
        pulse = linear_chirp(ChirpDesign(windowed=True))
        assert abs(pulse[0]) < 1e-9
        assert abs(pulse[-1]) < 0.15  # Hann end sample is near zero


class TestMatchedFilter:
    def test_peaks_at_pulse_onsets(self):
        design = ChirpDesign()
        pulse = linear_chirp(design)
        train = np.tile(np.pad(pulse, (0, design.samples_per_interval - pulse.size)), 4)
        response = matched_filter_planned(train, design)
        hop = design.samples_per_interval
        for k in range(4):
            window = response[k * hop : k * hop + design.samples_per_chirp]
            peak_global = np.max(response)
            assert np.max(window) > 0.5 * peak_global

    def test_cross_correlate_matches_numpy(self, rng):
        a = rng.standard_normal(50)
        b = rng.standard_normal(20)
        np.testing.assert_allclose(
            cross_correlate(a, b), np.correlate(a, b, mode="full"), atol=1e-9
        )

    def test_cross_correlate_empty_raises(self):
        with pytest.raises(ValueError):
            cross_correlate(np.array([]), np.ones(3))


def _analytic(signal: np.ndarray) -> np.ndarray:
    """Analytic signal via the FFT Hilbert construction."""
    n = signal.size
    spectrum = np.fft.fft(signal)
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[n // 2] = 1.0
        h[1 : n // 2] = 2.0
    else:
        h[1 : (n + 1) // 2] = 2.0
    return np.fft.ifft(spectrum * h)
