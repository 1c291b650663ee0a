"""Tests for the even/odd decomposition segmentation machinery.

``segment_eardrum_echo`` segments one event and is the oracle for the
batched ``segment_eardrum_echoes``, which must return the same echo,
bit for bit, for every event of a seeded corpus and a seeded config
sweep, and ``None`` wherever the oracle raises ``NoEchoFoundError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.acoustics.reverb import ReverbConfig
from repro.core.config import EarSonarConfig, RobustnessConfig
from repro.core.pipeline import EarSonarPipeline
from repro.errors import NoEchoFoundError, SignalProcessingError
from repro.faultlab import apply_to_recording, fault_catalog
from repro.signal.chirp import ChirpDesign, linear_chirp
from repro.signal.parity import (
    EchoSegmenterConfig,
    autoconvolution,
    find_symmetry_candidates,
    parity_decompose,
    parity_energies,
    segment_eardrum_echo,
    segment_eardrum_echoes,
)
from repro.simulation import SessionConfig, record_session, sample_participant
from repro.simulation.calibration import CalibrationDriftConfig

finite_arrays = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=4, max_size=64
).map(np.array)


class TestParityDecompose:
    @given(finite_arrays, st.integers(min_value=0, max_value=126))
    @settings(max_examples=60, deadline=None)
    def test_sum_reconstructs_signal(self, x, two_fold):
        fold = min(two_fold, 2 * (x.size - 1)) / 2.0
        even, odd = parity_decompose(x, fold)
        np.testing.assert_allclose(even + odd, x, atol=1e-9)

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_even_part_is_even_odd_part_is_odd(self, x):
        fold = (x.size - 1) / 2.0 if x.size % 2 == 1 else x.size / 2.0 - 0.5
        # Use integer fold for the simple index check.
        fold = float(int(fold))
        even, odd = parity_decompose(x, fold)
        c = int(fold)
        for d in range(1, min(c, x.size - 1 - c) + 1):
            assert even[c - d] == pytest.approx(even[c + d], abs=1e-9)
            assert odd[c - d] == pytest.approx(-odd[c + d], abs=1e-9)

    def test_pure_even_signal(self):
        x = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        even, odd = parity_decompose(x, 2.0)
        np.testing.assert_allclose(even, x)
        np.testing.assert_allclose(odd, np.zeros_like(x))

    def test_pure_odd_signal(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        even, odd = parity_decompose(x, 2.0)
        np.testing.assert_allclose(odd, x)
        np.testing.assert_allclose(even, np.zeros_like(x))

    def test_half_sample_fold(self):
        x = np.array([1.0, 2.0, 2.0, 1.0])
        even, odd = parity_decompose(x, 1.5)
        np.testing.assert_allclose(even, x)
        np.testing.assert_allclose(odd, np.zeros_like(x))

    def test_invalid_fold_rejected(self):
        with pytest.raises(ValueError):
            parity_decompose(np.ones(8), 1.3)

    def test_empty_raises(self):
        with pytest.raises(SignalProcessingError):
            parity_decompose(np.array([]), 0.0)


class TestAutoconvolution:
    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_convolve(self, x):
        np.testing.assert_allclose(
            autoconvolution(x), np.convolve(x, x), atol=1e-7
        )

    def test_energy_relation_eq10(self, rng):
        # Paper Eq. (10): E_even/odd = E/2 +- (x*x)[2 n0] / 2.
        x = rng.standard_normal(32)
        conv = autoconvolution(x)
        total = float(np.sum(x**2))
        n0 = 15
        even_e, odd_e = parity_energies(x, float(n0))
        # Mirror indices outside [0, N) contribute zero on both sides,
        # so the identity holds with the linear autoconvolution.
        assert even_e - odd_e == pytest.approx(conv[2 * n0], abs=1e-9)
        assert even_e + odd_e <= total + 1e-9

    def test_rows_match_one_dimensional_calls(self, rng):
        stack = rng.standard_normal((5, 37))
        conv = autoconvolution(stack)
        for row, expected in zip(conv, stack):
            np.testing.assert_array_equal(row, autoconvolution(expected))

    def test_symmetric_pulse_peaks_at_twice_its_fold(self):
        pulse = np.sin(np.linspace(0, np.pi, 41))  # even about sample 20
        assert np.argmax(np.abs(autoconvolution(pulse))) / 2.0 == pytest.approx(20.0, abs=0.5)


class TestCandidates:
    def test_symmetric_pulse_found(self):
        signal = np.zeros(200)
        pulse = np.sin(np.linspace(0, np.pi, 31)) * np.sin(np.arange(31) * 2.4)
        signal[80:111] = pulse
        candidates = find_symmetry_candidates(signal, support=20)
        assert candidates
        # The fold with the best parity ratio is the pulse centre.
        best = max(candidates, key=lambda c: c.energy_ratio)
        assert best.center == pytest.approx(95.0, abs=2.0)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            find_symmetry_candidates(np.ones(50), energy_ratio_threshold=0.4)
        with pytest.raises(ValueError):
            find_symmetry_candidates(np.ones(50), energy_ratio_threshold=1.0)

    def test_short_signal_returns_empty(self):
        assert find_symmetry_candidates(np.ones(3)) == []

    def test_candidates_sorted_by_energy(self, rng):
        signal = rng.standard_normal(300) * 0.05
        signal[100:130] += 2.0 * np.sin(np.arange(30) * 2.0)
        candidates = find_symmetry_candidates(signal, support=10)
        energies = [c.energy_ratio for c in candidates]
        local = [c.local_energy for c in candidates]
        assert local == sorted(local, reverse=True)
        assert all(0.5 < r <= 1.0 + 1e-9 for r in energies)


class TestSegmenter:
    def test_config_delay_window(self):
        cfg = EchoSegmenterConfig()
        lo, hi = cfg.delay_window_samples()
        # 16-34 mm at 343 m/s and 384 kHz effective rate.
        assert lo == int(np.floor(2 * 0.016 / 343.0 * 384_000))
        assert hi == int(np.ceil(2 * 0.034 / 343.0 * 384_000))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EchoSegmenterConfig(min_distance_m=0.05, max_distance_m=0.03)
        with pytest.raises(ValueError):
            EchoSegmenterConfig(upsample_factor=0)
        with pytest.raises(ValueError):
            EchoSegmenterConfig(segment_half_length=2)
        for threshold in (0.4, 0.5, 1.0):
            with pytest.raises(ValueError):
                EchoSegmenterConfig(energy_ratio_threshold=threshold)
        for support in (-3, 0):
            with pytest.raises(ValueError):
                EchoSegmenterConfig(support=support)

    def test_synthetic_two_pulse_event(self):
        """Direct pulse + delayed echo at a known distance is recovered."""
        design = ChirpDesign()
        pulse = linear_chirp(design)
        event = np.zeros(120)
        event[:24] += pulse
        delay = 6  # samples at 48 kHz -> 48 upsampled
        event[delay : delay + 24] += 0.5 * pulse
        cfg = EchoSegmenterConfig(min_distance_m=0.018, max_distance_m=0.03)
        echo = segment_eardrum_echo(event, cfg)
        assert echo.sample_rate == pytest.approx(384_000.0)
        # Estimated delay within a couple of original samples of truth.
        assert echo.delay_samples / 8.0 == pytest.approx(delay, abs=2.5)
        assert echo.segment.size == 2 * cfg.segment_half_length

    def test_no_echo_in_silence(self):
        with pytest.raises(NoEchoFoundError):
            segment_eardrum_echo(np.zeros(240))

    def test_too_short_event_raises(self):
        with pytest.raises(NoEchoFoundError):
            segment_eardrum_echo(np.ones(3))

    def test_distance_helper(self):
        design = ChirpDesign()
        pulse = linear_chirp(design)
        event = np.zeros(120)
        event[:24] += pulse
        event[6:30] += 0.5 * pulse
        cfg = EchoSegmenterConfig(min_distance_m=0.018, max_distance_m=0.03)
        echo = segment_eardrum_echo(event, cfg)
        assert 0.015 < echo.distance() < 0.035

    def test_fast_ratio_matches_parity_energies(self, rng):
        """The inlined energy-ratio formula equals the reference decomposition."""
        x = rng.standard_normal(101)
        support = 15
        for center in (40.0, 50.5, 60.0):
            lo = int(np.floor(center)) - support
            hi = int(np.ceil(center)) + support + 1
            window = x[lo:hi]
            total = float(window @ window)
            fast = (total + abs(float(window @ window[::-1]))) / (2.0 * total)
            even_e, odd_e = parity_energies(window, center - lo)
            ref = max(even_e, odd_e) / total
            assert fast == pytest.approx(ref, abs=1e-9)


def assert_matches_oracle(signals, config) -> int:
    """Hold the batched segmenter to the per-event oracle, event by event.

    Returns the number of events that yielded an echo.
    """
    batched = segment_eardrum_echoes(signals, config)
    assert len(batched) == len(signals)
    found = 0
    for signal, echo in zip(signals, batched):
        try:
            expected = segment_eardrum_echo(signal, config)
        except NoEchoFoundError:
            assert echo is None
            continue
        assert echo is not None
        assert echo.center == expected.center
        assert echo.direct_center == expected.direct_center
        assert echo.delay_samples == expected.delay_samples
        assert echo.energy_ratio == expected.energy_ratio
        assert echo.sample_rate == expected.sample_rate
        np.testing.assert_array_equal(echo.segment, expected.segment)
        found += 1
    return found


def seeded_captures(seed: int) -> list[tuple[list[np.ndarray], EchoSegmenterConfig]]:
    """Event signals of seeded captures, as the parity stage sees them.

    Two default 1 s captures; six reverberant 0.1 s captures from
    drifting device units, raked first; and one 0.25 s capture damaged
    by each ``fault_catalog(2.0)`` model (non-finite samples sanitized).
    """
    rng = np.random.default_rng(seed)
    captures = []

    def events_of(pipeline, session, name, fault=None):
        participant = sample_participant(rng, name, total_days=30)
        recording = record_session(participant, float(rng.uniform(0.0, 30.0)), session, rng)
        if fault is not None:
            recording = apply_to_recording(recording, fault, rng)
        filtered = pipeline.preprocess(recording.waveform)
        events = pipeline.detect_chirp_events(filtered)
        if pipeline.config.reverb.enabled:
            filtered, _ = pipeline.cancel_reflections(filtered, events)
        signals = [event.slice(filtered) for event in events]
        captures.append((signals, pipeline.config.segmenter))

    default = EarSonarPipeline()
    for i in range(2):
        events_of(default, SessionConfig(duration_s=1.0), f"d{i}")
    reverberant = EarSonarPipeline(EarSonarConfig(reverb=ReverbConfig(enabled=True)))
    for i in range(6):
        session = SessionConfig(
            duration_s=0.1,
            reverb=ReverbConfig(enabled=True, strength=float(rng.uniform(0.0, 2.0))),
            calibration=CalibrationDriftConfig(enabled=True),
            device_unit=int(rng.integers(8)),
        )
        events_of(reverberant, session, f"r{i}")
    sanitizing = EarSonarPipeline(
        EarSonarConfig(
            robustness=RobustnessConfig(sanitize_nonfinite=True, max_nonfinite_fraction=1.0)
        )
    )
    for name, fault in fault_catalog(2.0).items():
        events_of(sanitizing, SessionConfig(duration_s=0.25), name, fault)
    return captures


def tied_event() -> np.ndarray:
    """Two identical pulse+echo pairs: their candidates tie bitwise at 1x."""
    pulse = linear_chirp(ChirpDesign())
    pair = np.zeros(80)
    pair[20:44] += pulse
    pair[26:50] += 0.5 * pulse
    return np.concatenate([pair, pair])


class TestBatchedSegmenter:
    def test_seeded_corpus(self):
        captures = seeded_captures(2026)
        assert sum(len(signals) for signals, _ in captures) >= 600
        found = sum(assert_matches_oracle(signals, config) for signals, config in captures)
        assert found >= 500

    def test_seeded_config_sweep(self):
        rng = np.random.default_rng(17)
        pipeline = EarSonarPipeline()
        participant = sample_participant(rng, "sweep", total_days=30)
        recording = record_session(participant, 3.0, SessionConfig(duration_s=0.1), rng)
        filtered = pipeline.preprocess(recording.waveform)
        signals = [event.slice(filtered) for event in pipeline.detect_chirp_events(filtered)]
        # Halves repeated twice force exact candidate ties.
        signals += [np.tile(signal[: signal.size // 2], 2) for signal in signals[:4]]
        found = 0
        for factor in (1, 2, 4, 8):
            for _ in range(4):
                config = EchoSegmenterConfig(
                    upsample_factor=factor,
                    support=int(rng.integers(1, 49)),
                    energy_ratio_threshold=float(rng.uniform(0.51, 0.95)),
                    # 1 um puts the delay window's lower edge at 0.
                    min_distance_m=float(rng.choice([1e-6, 0.008, 0.016])),
                    max_distance_m=float(rng.uniform(0.02, 0.05)),
                    segment_half_length=int(rng.integers(4, 300)),
                )
                cut = [s[: int(rng.integers(2, s.size + 1))] for s in signals[:6]]
                found += assert_matches_oracle(signals + cut, config)
        assert found > 0

    def test_empty_list(self):
        assert segment_eardrum_echoes([]) == []

    def test_events_shorter_than_four_samples(self):
        signals = [np.ones(3), tied_event(), np.ones(1), np.zeros(0)]
        echoes = segment_eardrum_echoes(signals, EchoSegmenterConfig(upsample_factor=1))
        assert echoes[0] is None and echoes[2] is None and echoes[3] is None
        assert echoes[1] is not None

    def test_all_zero_event(self):
        assert segment_eardrum_echoes([np.zeros(240)]) == [None]
        assert_matches_oracle([np.zeros(240)], EchoSegmenterConfig())

    def test_no_candidate_in_the_delay_window(self):
        # Symmetric candidates exist, but none trails the direct pulse
        # by 0.5-0.6 m of round trip.
        config = EchoSegmenterConfig(
            upsample_factor=1, support=8, min_distance_m=0.5, max_distance_m=0.6
        )
        event = tied_event()
        assert find_symmetry_candidates(event, support=config.support)
        assert segment_eardrum_echoes([event], config) == [None]
        assert_matches_oracle([event], config)

    def test_mixed_lengths_in_one_call(self):
        rng = np.random.default_rng(3)
        pulse = linear_chirp(ChirpDesign())
        signals = []
        for length in (120, 96, 120, 131, 96, 64, 131):
            event = 1e-3 * rng.standard_normal(length)
            event[:24] += pulse
            event[6:30] += 0.5 * pulse
            signals.append(event)
        config = EchoSegmenterConfig(min_distance_m=0.018, max_distance_m=0.03)
        assert assert_matches_oracle(signals, config) == len(signals)

    def test_peak_method_matches_the_per_event_call(self):
        rng = np.random.default_rng(8)
        signals = [rng.standard_normal(n) * 0.1 for n in (240, 120, 240)]
        signals += [np.zeros(240), np.ones(2)]
        config = EchoSegmenterConfig(method="peak")
        assert assert_matches_oracle(signals, config) == 3

    def test_exact_echo_ties(self):
        # Small-integer samples make window energies and fold sums exact,
        # so in-window candidates tie on energy (the ratio decides) and on
        # energy and ratio both (the lowest centre wins).
        rng = np.random.default_rng(11)
        signals = [
            rng.integers(-3, 4, size=int(rng.integers(24, 48))).astype(float)
            for _ in range(300)
        ]
        for support in (1, 2, 3):
            config = EchoSegmenterConfig(
                upsample_factor=1, support=support, min_distance_m=1e-6, max_distance_m=0.2
            )
            assert assert_matches_oracle(signals, config) > 100

    def test_exact_energy_tie_goes_to_the_lower_centre(self):
        config = EchoSegmenterConfig(upsample_factor=1, support=8)
        event = tied_event()
        top, runner_up = find_symmetry_candidates(event, support=8)[:2]
        assert top.local_energy == runner_up.local_energy
        assert runner_up.center == top.center + 80
        (echo,) = segment_eardrum_echoes([event], config)
        assert echo.direct_center == top.center
        assert_matches_oracle([event], config)
