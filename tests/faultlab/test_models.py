"""Unit tests for the acquisition-fault models.

Every model must be deterministic under a fixed seed, must never
mutate its input, and must leave the physical signature its docstring
promises (zero runs, rails, NaNs, ...) on a known waveform.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faultlab import (
    Clipping,
    DCClockDrift,
    DropoutBursts,
    FaultModel,
    NonFiniteCorruption,
    SealLeak,
    Truncation,
    TransientBursts,
    apply_to_recording,
    fault_catalog,
)

SAMPLE_RATE = 48_000.0

ALL_MODELS = [
    DropoutBursts(),
    Clipping(),
    TransientBursts(),
    SealLeak(),
    DCClockDrift(),
    Truncation(),
    NonFiniteCorruption(),
]


@pytest.fixture
def waveform() -> np.ndarray:
    """One second of deterministic broadband signal with clear structure."""
    t = np.arange(int(SAMPLE_RATE)) / SAMPLE_RATE
    rng = np.random.default_rng(99)
    return np.sin(2 * np.pi * 440.0 * t) + 0.1 * rng.standard_normal(t.size)


# ---------------------------------------------------------------------------
# Shared contract
# ---------------------------------------------------------------------------


class TestFaultModelContract:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_same_seed_same_damage(self, model, waveform):
        a = model.apply(waveform, SAMPLE_RATE, np.random.default_rng(7))
        b = model.apply(waveform, SAMPLE_RATE, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_input_never_mutated(self, model, waveform):
        before = waveform.copy()
        model.apply(waveform, SAMPLE_RATE, np.random.default_rng(7))
        np.testing.assert_array_equal(waveform, before)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_severity_one_is_the_model_itself(self, model):
        assert model.at_severity(1.0) == model

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_severity_zero_is_a_numeric_noop(self, model, waveform):
        benign = model.at_severity(0.0)
        out = benign.apply(waveform, SAMPLE_RATE, np.random.default_rng(7))
        np.testing.assert_array_equal(out, waveform)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_fingerprint_tracks_severity(self, model):
        assert model.fingerprint() == model.at_severity(1.0).fingerprint()
        assert model.fingerprint() != model.at_severity(0.5).fingerprint()

    def test_negative_severity_rejected(self):
        with pytest.raises(ConfigurationError):
            Clipping().at_severity(-0.5)

    def test_toward_one_fields_clamp_at_high_severity(self):
        harsh = Clipping(level=0.5).at_severity(10.0)
        assert 1e-3 <= harsh.level <= 1.0
        kept = Truncation(keep_fraction=0.5).at_severity(10.0)
        assert 1e-3 <= kept.keep_fraction <= 1.0

    def test_scale_fields_multiply_linearly(self):
        doubled = SealLeak(attenuation_db=12.0, noise_ratio=0.05).at_severity(2.0)
        assert doubled.attenuation_db == pytest.approx(24.0)
        assert doubled.noise_ratio == pytest.approx(0.1)

    def test_base_apply_is_abstract(self, waveform):
        with pytest.raises(NotImplementedError):
            FaultModel().apply(waveform, SAMPLE_RATE, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Per-model signatures
# ---------------------------------------------------------------------------


class TestModelSignatures:
    def test_dropout_leaves_zero_runs(self, waveform):
        out = DropoutBursts(rate_per_s=20.0, burst_ms=2.0).apply(
            waveform, SAMPLE_RATE, np.random.default_rng(7)
        )
        assert np.count_nonzero(out == 0.0) >= int(2e-3 * SAMPLE_RATE)

    def test_clipping_rails_at_fraction_of_peak(self, waveform):
        peak = float(np.max(np.abs(waveform)))
        out = Clipping(level=0.5).apply(waveform, SAMPLE_RATE, np.random.default_rng(7))
        assert float(np.max(np.abs(out))) <= 0.5 * peak + 1e-12
        # The removed headroom is real damage, not a rescale.
        assert np.count_nonzero(np.abs(out) == 0.5 * peak) > 0

    def test_transients_add_energy(self, waveform):
        out = TransientBursts(rate_per_s=10.0, amplitude=6.0).apply(
            waveform, SAMPLE_RATE, np.random.default_rng(7)
        )
        assert float(np.sqrt(np.mean(out**2))) > float(np.sqrt(np.mean(waveform**2)))

    def test_seal_leak_attenuates(self, waveform):
        out = SealLeak(attenuation_db=12.0, noise_ratio=0.0).apply(
            waveform, SAMPLE_RATE, np.random.default_rng(7)
        )
        expected = float(np.sqrt(np.mean(waveform**2))) * 10.0 ** (-12.0 / 20.0)
        assert float(np.sqrt(np.mean(out**2))) == pytest.approx(expected, rel=1e-6)

    def test_dc_drift_offsets_the_mean(self, waveform):
        out = DCClockDrift(offset_ratio=0.2, drift_ppm=0.0).apply(
            waveform, SAMPLE_RATE, np.random.default_rng(7)
        )
        assert float(np.mean(out)) > float(np.mean(waveform)) + 0.1

    def test_truncation_keeps_leading_fraction(self, waveform):
        out = Truncation(keep_fraction=0.5).apply(
            waveform, SAMPLE_RATE, np.random.default_rng(7)
        )
        assert out.size == round(waveform.size * 0.5)
        np.testing.assert_array_equal(out, waveform[: out.size])

    def test_nonfinite_poisons_samples(self, waveform):
        out = NonFiniteCorruption(rate_per_s=100.0, inf_fraction=0.25).apply(
            waveform, SAMPLE_RATE, np.random.default_rng(7)
        )
        assert np.isnan(out).any()
        assert np.isinf(out).any()
        # The vast majority of the capture survives.
        assert float(np.mean(np.isfinite(out))) > 0.99


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: DropoutBursts(rate_per_s=-1.0),
            lambda: DropoutBursts(burst_ms=0.0),
            lambda: Clipping(level=0.0),
            lambda: Clipping(level=1.5),
            lambda: TransientBursts(amplitude=-1.0),
            lambda: SealLeak(attenuation_db=-3.0),
            lambda: DCClockDrift(offset_ratio=-0.1),
            lambda: Truncation(keep_fraction=0.0),
            lambda: Truncation(keep_fraction=1.2),
            lambda: NonFiniteCorruption(inf_fraction=2.0),
        ],
    )
    def test_out_of_range_parameters_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_stable_keys(self):
        assert set(fault_catalog()) == {
            "dropout",
            "clipping",
            "transient",
            "seal_leak",
            "dc_drift",
            "truncation",
            "nonfinite",
            "reverb_tail",
            "calibration_drift",
        }

    def test_severity_is_applied(self):
        assert fault_catalog(0.5)["seal_leak"].attenuation_db == pytest.approx(6.0)

    def test_severity_zero_is_constructible(self, waveform):
        for model in fault_catalog(0.0).values():
            out = model.apply(waveform, SAMPLE_RATE, np.random.default_rng(7))
            np.testing.assert_array_equal(out, waveform)


class TestApplyToRecording:
    def test_waveform_replaced_provenance_kept(self, recording):
        damaged = apply_to_recording(
            recording, SealLeak(), np.random.default_rng(7)
        )
        assert not np.array_equal(damaged.waveform, recording.waveform)
        assert damaged.participant_id == recording.participant_id
        assert damaged.day == recording.day
        assert damaged.state is recording.state
        assert damaged.config == recording.config

    def test_original_recording_untouched(self, recording):
        before = recording.waveform.copy()
        apply_to_recording(recording, Clipping(), np.random.default_rng(7))
        np.testing.assert_array_equal(recording.waveform, before)

    def test_truncation_shortens_the_capture(self, recording):
        damaged = apply_to_recording(
            recording, Truncation(keep_fraction=0.5), np.random.default_rng(7)
        )
        assert damaged.waveform.size < recording.waveform.size
        assert damaged.duration_s == pytest.approx(recording.duration_s * 0.5, rel=0.01)
