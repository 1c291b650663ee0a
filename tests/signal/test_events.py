"""Tests for the adaptive energy event detector."""

import numpy as np
import pytest
from scipy.signal import lfilter, lfiltic

import repro.signal.events as events_module
from repro.acoustics.reverb import ReverbConfig
from repro.core.pipeline import EarSonarPipeline
from repro.errors import SignalProcessingError
from repro.signal.chirp import ChirpDesign, linear_chirp
from repro.signal.events import (
    Event,
    EventDetectorConfig,
    detect_events,
    detect_events_reference,
    sliding_power,
)
from repro.signal.filters import first_order_iir
from repro.simulation import SessionConfig, record_session, sample_participant
from repro.simulation.calibration import CalibrationDriftConfig


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


#: The shapes the event-by-event search must reproduce: the default, a
#: hangover of 0 (closes like 1), events force-closed after 3 samples
#: on a 5-sample window, and long statistics with a long hangover.
ORACLE_CONFIGS = (
    EventDetectorConfig(),
    EventDetectorConfig(hangover=0),
    EventDetectorConfig(window=5, min_event_length=1, max_event_length=3),
    EventDetectorConfig(window=200, hangover=60),
)


def _gather_sliding_power(signal, window):
    """``sliding_power`` as four fancy-index gathers, the expression it replaced."""
    power = signal**2
    w = int(window)
    csum = np.concatenate([[0.0], np.cumsum(power)])
    csum2 = np.concatenate([[0.0], np.cumsum(power**2)])
    idx = np.arange(signal.size)
    lo = np.maximum(0, idx - w + 1)
    counts = idx - lo + 1
    a = (csum[idx + 1] - csum[lo]) / counts
    var = np.maximum(0.0, (csum2[idx + 1] - csum2[lo]) / counts - a**2)
    b = np.sqrt(var)
    alpha = 1.0 / w
    mu = first_order_iir(a, alpha, 1.0 - alpha, initial=float(a[0]))
    sigma = first_order_iir(b, alpha, 1.0 - alpha, initial=float(b[0]))
    return mu, sigma


def _scipy_first_order(values, gain, pole, *, initial=0.0):
    """The smoothing as ``scipy.signal.lfilter`` evaluates it."""
    zi = lfiltic([gain], [1.0, -pole], y=[initial])
    return lfilter([gain], [1.0, -pole], values, zi=zi)[0]


@pytest.fixture(scope="module")
def event_corpus():
    """Band-passed seeded captures, their short prefixes and white noise.

    Plain 1 s captures (the study-batch shape) and reverberant 0.1 and
    0.25 s captures from drifting device units (the served shape), each
    also cut to 30, 5 and 1 samples; one capture is cut inside an event
    so that its last event runs into the end of the signal.
    """
    rng = np.random.default_rng(2029)
    pipeline = EarSonarPipeline()
    captures = []
    for i in range(9):
        participant = sample_participant(rng, f"E{i}", total_days=30)
        if i < 3:
            session = SessionConfig(duration_s=1.0)
        else:
            session = SessionConfig(
                duration_s=(0.1, 0.25)[i % 2],
                reverb=ReverbConfig(enabled=True),
                calibration=CalibrationDriftConfig(enabled=True),
                device_unit=int(rng.integers(8)),
            )
        recording = record_session(participant, float(rng.uniform(0.0, 30.0)), session, rng)
        captures.append(pipeline.preprocess(recording.waveform))
    signals = [cut for x in captures for cut in (x, x[:30], x[:5], x[:1])]
    inside = detect_events_reference(captures[0])[3]
    signals.append(captures[0][: inside.start + inside.length // 2])
    signals.append(rng.standard_normal(3000))
    return signals


class TestDetectEventsOracle:
    @pytest.mark.parametrize("config", ORACLE_CONFIGS)
    def test_equals_per_sample_loop(self, event_corpus, config):
        for signal in event_corpus + [event_corpus[0][: config.window]]:
            got = [(e.start, e.end) for e in detect_events(signal, config)]
            want = [(e.start, e.end) for e in detect_events_reference(signal, config)]
            assert got == want

    def test_corpus_covers_the_edge_shapes(self, event_corpus):
        default = EventDetectorConfig()
        lengths = {signal.size for signal in event_corpus}
        assert min(lengths) < default.window
        cut = event_corpus[-2]
        assert detect_events_reference(cut)[-1].end == cut.size
        assert sum(len(detect_events_reference(s)) for s in event_corpus) > 500

    @pytest.mark.parametrize("window", [1, 5, 48, 200, 5000])
    def test_sliding_power_matches_gathers(self, event_corpus, window):
        for signal in event_corpus:
            mu, sigma = sliding_power(signal, window)
            want_mu, want_sigma = _gather_sliding_power(signal, window)
            assert mu.tobytes() == want_mu.tobytes()
            assert sigma.tobytes() == want_sigma.tobytes()

    @pytest.mark.parametrize("config", ORACLE_CONFIGS)
    def test_events_equal_the_scipy_smoothed_path(self, event_corpus, config, monkeypatch):
        ours = [
            [(e.start, e.end) for e in detect_events(signal, config)]
            for signal in event_corpus
        ]
        monkeypatch.setattr(events_module, "first_order_iir", _scipy_first_order)
        theirs = [
            [(e.start, e.end) for e in detect_events(signal, config)]
            for signal in event_corpus
        ]
        assert ours == theirs
