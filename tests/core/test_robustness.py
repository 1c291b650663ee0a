"""Graceful-degradation behaviour of the pipeline's robustness config.

The central invariant: on a *clean* waveform the robust pipeline is
bit-identical to the strict default — degradation machinery may only
change what happens to damaged inputs, never the published numbers.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import EarSonarConfig, EarSonarPipeline
from repro.core.config import RobustnessConfig
from repro.errors import ConfigurationError, InvalidWaveformError
from repro.signal.events import detect_events


def robust_pipeline() -> EarSonarPipeline:
    return EarSonarPipeline(
        EarSonarConfig(robustness=RobustnessConfig(sanitize_nonfinite=True))
    )


def poisoned(recording, fraction: float):
    """The recording with ``fraction`` of its samples set to NaN."""
    waveform = recording.waveform.copy()
    count = max(1, int(round(waveform.size * fraction)))
    positions = np.linspace(0, waveform.size - 1, count).astype(int)
    waveform[positions] = np.nan
    return dataclasses.replace(recording, waveform=waveform)


class TestCleanPathIdentity:
    def test_robust_config_is_bit_identical_on_clean_input(self, recording):
        strict = EarSonarPipeline(EarSonarConfig()).process(recording)
        robust = robust_pipeline().process(recording)
        np.testing.assert_array_equal(robust.features, strict.features)
        np.testing.assert_array_equal(robust.curve, strict.curve)
        np.testing.assert_array_equal(robust.mean_segment, strict.mean_segment)

    def test_clean_input_has_full_confidence(self, recording):
        out = robust_pipeline().process(recording)
        assert out.confidence == 1.0
        assert out.num_chirps_dropped == 0
        assert out.quality_reasons == ()


class TestDegradedPath:
    def test_sparse_nan_is_sanitized_and_tagged(self, recording):
        out = robust_pipeline().process(poisoned(recording, 0.001))
        assert 0.0 < out.confidence < 1.0
        assert "non_finite" in out.quality_reasons

    def test_strict_default_rejects_any_nan(self, recording):
        with pytest.raises(InvalidWaveformError):
            EarSonarPipeline(EarSonarConfig()).process(poisoned(recording, 0.001))

    def test_sanitizer_gives_up_past_the_budget(self, recording):
        # 20% NaN is beyond max_nonfinite_fraction: unsalvageable.
        with pytest.raises(InvalidWaveformError):
            robust_pipeline().process(poisoned(recording, 0.2))

    def test_empty_waveform_raises_typed_error(self, recording):
        empty = dataclasses.replace(recording, waveform=np.array([]))
        with pytest.raises(InvalidWaveformError):
            robust_pipeline().process(empty)


class TestCorruptChirpDrop:
    def test_zero_and_nan_echoes_are_dropped(self, recording):
        clean = EarSonarPipeline(EarSonarConfig()).process(recording)
        pipe = EarSonarPipeline(EarSonarConfig())
        extract = pipe.extract_echoes

        def with_corrupt_echoes(filtered, events=None):
            echoes = extract(filtered, events)
            zero = dataclasses.replace(echoes[0], segment=np.zeros_like(echoes[0].segment))
            nan = dataclasses.replace(echoes[0], segment=np.full_like(echoes[0].segment, np.nan))
            return [zero, *echoes[:3], nan, *echoes[3:]]

        pipe.extract_echoes = with_corrupt_echoes
        out = pipe.process(recording)
        assert clean.num_echoes == 20
        assert out.num_echoes == 20
        assert out.num_chirps_dropped == 2
        assert out.quality_reasons == ("corrupt_chirps",)
        assert out.confidence == 20 / 22
        np.testing.assert_array_equal(out.features, clean.features)
        np.testing.assert_array_equal(out.curve, clean.curve)
        np.testing.assert_array_equal(out.mean_segment, clean.mean_segment)


class TestRobustnessConfig:
    def test_fraction_budget_validated(self):
        with pytest.raises(ConfigurationError):
            RobustnessConfig(max_nonfinite_fraction=1.5)

    def test_participates_in_config_fingerprint(self):
        strict = EarSonarConfig().fingerprint()
        robust = EarSonarConfig(
            robustness=RobustnessConfig(sanitize_nonfinite=True)
        ).fingerprint()
        assert strict != robust


class TestEventDetectorGuard:
    def test_detect_events_rejects_nonfinite_signal(self):
        bad = np.ones(4096)
        bad[10] = np.nan
        with pytest.raises(InvalidWaveformError):
            detect_events(bad)
