"""Tests for the adaptive energy event detector."""

import numpy as np
import pytest

from repro.errors import SignalProcessingError
from repro.signal.chirp import ChirpDesign, linear_chirp
from repro.signal.events import Event, EventDetectorConfig, detect_events, sliding_power


def _pulse_train(design: ChirpDesign, count: int) -> np.ndarray:
    """``count`` pulses, one at the start of each chirp interval."""
    pulse = linear_chirp(design)
    return np.tile(np.pad(pulse, (0, design.samples_per_interval - pulse.size)), count)


class TestEvent:
    def test_length_and_slice(self):
        e = Event(10, 20)
        assert e.length == 10
        np.testing.assert_allclose(e.slice(np.arange(30.0)), np.arange(10.0, 20.0))

    @pytest.mark.parametrize("start,end", [(-1, 5), (5, 5), (5, 3)])
    def test_invalid_bounds(self, start, end):
        with pytest.raises(ValueError):
            Event(start, end)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"min_event_length": 0},
            {"min_event_length": 100, "max_event_length": 50},
            {"threshold_scale": 0.0},
            {"hangover": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EventDetectorConfig(**kwargs)


class TestSlidingPower:
    def test_constant_signal(self):
        mu, sigma = sliding_power(np.ones(200), 16)
        assert mu[-1] == pytest.approx(1.0, rel=1e-6)
        assert sigma[-1] == pytest.approx(0.0, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(SignalProcessingError):
            sliding_power(np.array([]), 16)

    def test_mu_tracks_step_increase(self):
        x = np.concatenate([0.1 * np.ones(300), np.ones(300)])
        mu, _ = sliding_power(x, 32)
        assert mu[250] < 0.05
        assert mu[-1] > 0.5

    def test_long_signal_stable(self, rng):
        # Regression: the first-order recursion must not under/overflow
        # on long inputs (10 s at 48 kHz).
        x = rng.standard_normal(480_000)
        mu, sigma = sliding_power(x, 48)
        assert np.all(np.isfinite(mu))
        assert np.all(np.isfinite(sigma))
        assert mu[-1] == pytest.approx(1.0, rel=0.2)


class TestDetectEvents:
    def test_detects_isolated_bursts(self, rng):
        x = 0.001 * rng.standard_normal(4000)
        for start in (500, 1500, 2800):
            x[start : start + 60] += np.sin(np.arange(60) * 2.0)
        events = detect_events(x, EventDetectorConfig(max_event_length=200))
        assert len(events) == 3
        starts = [e.start for e in events]
        for expected, got in zip((500, 1500, 2800), starts):
            assert abs(got - expected) < 30

    def test_counts_chirps_in_train(self, rng):
        design = ChirpDesign()
        train = _pulse_train(design, 20)
        noisy = train + 0.001 * rng.standard_normal(train.size)
        events = detect_events(noisy)
        assert len(events) == 20

    def test_event_spacing_matches_interval(self, rng):
        design = ChirpDesign()
        train = _pulse_train(design, 10) + 0.001 * rng.standard_normal(2400)
        events = detect_events(train)
        spacings = np.diff([e.start for e in events])
        np.testing.assert_allclose(spacings, design.samples_per_interval, atol=5)

    def test_empty_signal_raises(self):
        with pytest.raises(SignalProcessingError):
            detect_events(np.array([]))

    def test_silence_yields_no_events(self):
        assert detect_events(np.zeros(1000)) == []

    def test_min_length_filters_glitches(self, rng):
        x = 0.0001 * rng.standard_normal(2000)
        x[1000] = 10.0  # single-sample spike
        events = detect_events(x, EventDetectorConfig(min_event_length=12))
        assert all(e.length >= 12 for e in events)

    def test_max_event_length_respected(self):
        x = np.sin(np.arange(5000) * 2.0)  # persistent tone
        events = detect_events(x, EventDetectorConfig(max_event_length=100))
        assert all(e.length <= 101 for e in events)
