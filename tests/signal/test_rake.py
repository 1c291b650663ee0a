"""Tests for the rake (early-reflection cancellation) primitives.

The behaviour tests run on synthetic segments built from the real chirp
pulse so every assertion has a known ground truth: where the direct
pulse sits, where the injected reflection sits, and how strong it is.
They run against both entry points: the dense per-segment oracle
``cancel_early_reflections`` and the batched lag-table kernel
``rake_cancel_batched``.  The equivalence tests then hold the batched
kernel to the oracle, event by event, on a seeded reverberant corpus
and on synthetic segments with and without noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.reverb import ReverbConfig
from repro.core.config import EarSonarConfig
from repro.core.pipeline import EarSonarPipeline
from repro.kernels.chirp import chirp_pulse, rake_cancel_batched
from repro.kernels.plan import rake_plan
from repro.signal.chirp import ChirpDesign
from repro.signal.correlation import (
    cancel_early_reflections,
    quadrature_pulse,
    rake_onset,
)
from repro.simulation import SessionConfig, record_session, sample_participant
from repro.simulation.calibration import CalibrationDriftConfig

DESIGN = ChirpDesign()
PULSE = chirp_pulse(DESIGN)
QUAD = quadrature_pulse(PULSE)
ONSET = 50
PROTECT = 6


def synthetic_segment(
    echo_delay: int | None = None,
    echo_gain: float = 0.5,
    *,
    phase: float = 0.0,
    length: int = 200,
) -> np.ndarray:
    """The direct pulse at ``ONSET`` plus one optional delayed copy.

    ``phase`` rotates the reflection's carrier by mixing the pulse with
    its quadrature, matching the incoherent-sum signal model.
    """
    segment = np.zeros(length)
    segment[ONSET : ONSET + PULSE.size] += PULSE
    if echo_delay is not None:
        carrier = np.cos(phase) * PULSE + np.sin(phase) * QUAD
        start = ONSET + echo_delay
        segment[start : start + PULSE.size] += echo_gain * carrier
    return segment


def residual(segment: np.ndarray) -> float:
    """Energy left after removing the known direct pulse."""
    direct_only = synthetic_segment(None, length=segment.size)
    return float(np.sum((segment - direct_only) ** 2))


class TestQuadraturePulse:
    def test_is_orthogonal_to_the_pulse(self):
        cosine = np.dot(PULSE, QUAD) / (
            np.linalg.norm(PULSE) * np.linalg.norm(QUAD)
        )
        assert abs(cosine) < 0.05

    def test_preserves_energy(self):
        assert np.sum(QUAD**2) == pytest.approx(np.sum(PULSE**2), rel=0.05)

    def test_too_short_input_rejected(self):
        with pytest.raises(ValueError):
            quadrature_pulse(np.array([1.0]))


class TestRakeOnset:
    def test_finds_the_direct_pulse(self):
        assert rake_onset(synthetic_segment(), PULSE, QUAD) == ONSET

    def test_phase_insensitive(self):
        # A segment carried on the quadrature phase peaks at the same
        # onset: the envelope search is what makes the rake robust to
        # arbitrary carrier phase.
        segment = np.zeros(200)
        segment[ONSET : ONSET + QUAD.size] = QUAD
        assert rake_onset(segment, PULSE, QUAD) == ONSET

    def test_short_segment_returns_zero(self):
        assert rake_onset(np.zeros(PULSE.size - 1), PULSE, QUAD) == 0


def rake_one_batched(segment, pulse, quad, **kwargs):
    """The batched kernel on a one-segment batch (templates from DESIGN)."""
    assert pulse is PULSE and quad is QUAD
    return rake_cancel_batched([segment], DESIGN, **kwargs)[0]


class TestCancelEarlyReflections:
    """Behaviour of the dense oracle; the subclass below reruns it batched."""

    cancel = staticmethod(cancel_early_reflections)

    def kwargs(self, **overrides):
        params = {"protect_from": PROTECT, "threshold": 0.12}
        params.update(overrides)
        return params

    @pytest.mark.parametrize("phase", [0.0, np.pi / 2, 2.0])
    def test_removes_a_strong_early_reflection(self, phase):
        segment = synthetic_segment(echo_delay=3, echo_gain=0.5, phase=phase)
        cleaned, removed = self.cancel(
            segment, PULSE, QUAD, **self.kwargs()
        )
        assert removed >= 1
        assert residual(cleaned) < 0.1 * residual(segment)

    def test_removes_two_overlapping_reflections(self):
        # Two echoes two samples apart are closer than the pulse's
        # resolution, so the solver may model them as one intermediate
        # tap; the contract is the energy leaves, not the tap count.
        segment = synthetic_segment(echo_delay=2, echo_gain=0.5)
        extra = synthetic_segment(echo_delay=4, echo_gain=0.4, phase=1.0)
        segment += extra - synthetic_segment()
        cleaned, removed = self.cancel(
            segment, PULSE, QUAD, **self.kwargs()
        )
        assert removed >= 1
        assert residual(cleaned) < 0.1 * residual(segment)

    def test_protected_window_is_never_subtracted(self):
        # A reflection at a delay inside the eardrum search window must
        # survive: that's where the diagnostic echo lives.
        segment = synthetic_segment(echo_delay=PROTECT + 2, echo_gain=0.5)
        cleaned, removed = self.cancel(
            segment, PULSE, QUAD, **self.kwargs()
        )
        assert removed == 0
        assert cleaned is segment

    def test_subthreshold_taps_left_alone(self):
        segment = synthetic_segment(echo_delay=3, echo_gain=0.05)
        cleaned, removed = self.cancel(
            segment, PULSE, QUAD, **self.kwargs()
        )
        assert removed == 0
        assert cleaned is segment

    def test_clean_segment_untouched(self):
        segment = synthetic_segment()
        cleaned, removed = self.cancel(
            segment, PULSE, QUAD, **self.kwargs()
        )
        assert removed == 0
        assert cleaned is segment

    def test_window_past_segment_end_is_a_noop(self):
        segment = synthetic_segment()[: ONSET + PULSE.size - 4]
        cleaned, removed = self.cancel(
            segment, PULSE, QUAD, **self.kwargs()
        )
        assert removed == 0
        np.testing.assert_array_equal(cleaned, segment)

    def test_input_never_mutated(self):
        segment = synthetic_segment(echo_delay=3, echo_gain=0.5)
        before = segment.copy()
        self.cancel(segment, PULSE, QUAD, **self.kwargs())
        np.testing.assert_array_equal(segment, before)

    def test_never_amplifies_the_residual(self):
        # Each subtraction projects the running residual, so even on
        # segments the template model fits poorly the rake must not
        # inject energy: multipath + noise in, no-worse residual out.
        rng = np.random.default_rng(7)
        for trial in range(20):
            segment = synthetic_segment(
                echo_delay=int(rng.integers(1, PROTECT)),
                echo_gain=float(rng.uniform(0.1, 0.6)),
                phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            )
            segment = segment + 0.05 * rng.standard_normal(segment.size)
            cleaned, _ = self.cancel(
                segment, PULSE, QUAD, **self.kwargs()
            )
            assert residual(cleaned) <= residual(segment) + 1e-9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"protect_from": 0, "threshold": 0.12},
            {"protect_from": 6, "threshold": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            self.cancel(synthetic_segment(), PULSE, QUAD, **kwargs)


class TestBatchedCancelEarlyReflections(TestCancelEarlyReflections):
    """Every oracle behaviour test, run on the batched kernel."""

    cancel = staticmethod(rake_one_batched)


def assert_matches_oracle(segments, *, protect_from, threshold):
    """Each segment of one batched call equals its own oracle run.

    Returns the number of taps removed, so callers can check that the
    comparison was not vacuous.
    """
    batched = rake_cancel_batched(
        segments, DESIGN, protect_from=protect_from, threshold=threshold
    )
    assert len(batched) == len(segments)
    removed_total = 0
    for segment, (cleaned, removed) in zip(segments, batched):
        reference, ref_removed = cancel_early_reflections(
            segment, PULSE, QUAD, protect_from=protect_from, threshold=threshold
        )
        assert removed == ref_removed
        np.testing.assert_allclose(cleaned, reference, rtol=0.0, atol=1e-9)
        removed_total += removed
    return removed_total


class TestPlannedKernel:
    def test_matches_the_unplanned_reference(self):
        segment = synthetic_segment(echo_delay=3, echo_gain=0.5, phase=1.0)
        reference, ref_removed = cancel_early_reflections(
            segment, PULSE, QUAD, protect_from=PROTECT, threshold=0.12
        )
        ((planned, plan_removed),) = rake_cancel_batched(
            [segment], DESIGN, protect_from=PROTECT, threshold=0.12
        )
        assert plan_removed == ref_removed >= 1
        np.testing.assert_allclose(planned, reference, atol=1e-10)

    def test_plan_lag_table_matches_dense_products(self):
        # Every Gram entry of two placed templates is one table lookup.
        lags = rake_plan(DESIGN).lags
        n = PULSE.size
        templates = (PULSE, QUAD)
        for delay in range(-n - 2, n + 3):
            for a, first in enumerate(templates):
                for b, second in enumerate(templates):
                    x = np.zeros(5 * n)
                    y = np.zeros(5 * n)
                    x[2 * n : 3 * n] = first
                    y[2 * n + delay : 3 * n + delay] = second
                    expected = lags[delay + n - 1, a, b] if abs(delay) < n else 0.0
                    assert x @ y == pytest.approx(expected, abs=1e-12)


def reverberant_events(seed: int, strengths, per_strength: int):
    """Event segments of seeded reverberant 0.1 s captures, one list each.

    Every capture comes from a fresh participant on a drifting device
    unit and is band-passed and event-detected by the pipeline, so the
    segments are exactly what the rake stage sees.
    """
    rng = np.random.default_rng(seed)
    pipeline = EarSonarPipeline(EarSonarConfig(reverb=ReverbConfig(enabled=True)))
    captures = []
    for strength in strengths:
        for i in range(per_strength):
            participant = sample_participant(rng, f"r{i}", total_days=30)
            session = SessionConfig(
                duration_s=0.1,
                reverb=ReverbConfig(enabled=True, strength=strength),
                calibration=CalibrationDriftConfig(enabled=True),
                device_unit=int(rng.integers(8)),
            )
            recording = record_session(
                participant, float(rng.uniform(0.0, 30.0)), session, rng
            )
            filtered = pipeline.preprocess(recording.waveform)
            events = pipeline.detect_chirp_events(filtered)
            captures.append([event.slice(filtered) for event in events])
    return captures


class TestOracleEquivalence:
    def test_seeded_reverberant_corpus(self):
        config = EarSonarConfig(reverb=ReverbConfig(enabled=True))
        captures = reverberant_events(2024, (0.0, 0.5, 1.0, 1.5, 2.0), 6)
        assert sum(len(events) for events in captures) >= 600
        removed = sum(
            assert_matches_oracle(
                events,
                protect_from=EarSonarPipeline(config).rake_protect_from,
                threshold=config.reverb.rake_threshold,
            )
            for events in captures
        )
        assert removed > 300

    @pytest.mark.parametrize(
        ("protect_from", "threshold"), [(4, 0.3), (6, 0.12), (6, 0.0), (8, 0.12)]
    )
    def test_noise_free_and_noisy_synthetic_segments(self, protect_from, threshold):
        # Noise-free near-perfect fits are where the lag-table residual
        # energy s·s - 2θ·b + θᵀGθ cancels; the 1e-3 noise copies are
        # the usual regime.
        rng = np.random.default_rng(protect_from * 100 + int(threshold * 100))
        segments = []
        for delay in (1, 2, 3, 5, PROTECT + 3):
            for gain in (0.2, 0.6):
                for phase in (0.0, 2.0):
                    clean = synthetic_segment(delay, gain, phase=phase, length=120)
                    segments.append(clean)
                    segments.append(clean + 1e-3 * rng.standard_normal(clean.size))
        second = synthetic_segment(2, 0.5, length=120)
        second += synthetic_segment(5, 0.3, phase=1.0, length=120)
        segments.append(second - synthetic_segment(length=120))
        segments.append(synthetic_segment(length=120))
        removed = assert_matches_oracle(
            segments, protect_from=protect_from, threshold=threshold
        )
        assert removed > 0

    def test_all_zero_segment(self):
        segment = np.zeros(60)
        ((cleaned, removed),) = rake_cancel_batched(
            [segment], DESIGN, protect_from=PROTECT, threshold=0.12
        )
        assert removed == 0 and cleaned is segment
        assert_matches_oracle([segment], protect_from=PROTECT, threshold=0.12)

    def test_segment_shorter_than_the_pulse(self):
        segment = np.ones(PULSE.size - 1)
        ((cleaned, removed),) = rake_cancel_batched(
            [segment], DESIGN, protect_from=PROTECT, threshold=0.12
        )
        assert removed == 0 and cleaned is segment
        assert_matches_oracle([segment], protect_from=PROTECT, threshold=0.12)

    def test_one_batch_mixes_event_lengths(self):
        # Fleet events run 32-56 samples; one call rakes them together.
        rng = np.random.default_rng(5)
        segments = []
        for length in range(32, 57, 3):
            segment = np.zeros(length)
            onset = int(rng.integers(0, 4))
            segment[onset : onset + PULSE.size] += PULSE
            delay = int(rng.integers(1, 5))
            if onset + delay + PULSE.size <= length:
                segment[onset + delay : onset + delay + PULSE.size] += 0.4 * QUAD
            segments.append(segment + 1e-3 * rng.standard_normal(length))
        segments.append(np.zeros(PULSE.size - 3))
        assert assert_matches_oracle(segments, protect_from=4, threshold=0.12) > 0

    def test_empty_batch(self):
        assert rake_cancel_batched([], DESIGN, protect_from=PROTECT, threshold=0.12) == []

    def test_empty_batch_still_validates(self):
        with pytest.raises(ValueError):
            rake_cancel_batched([], DESIGN, protect_from=0, threshold=0.12)
