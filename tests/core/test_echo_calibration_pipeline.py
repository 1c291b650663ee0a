"""Pipeline integration for the echo-aware + calibration-aware stages.

Two contracts are under test:

1. **Disabled is invisible.**  With ``reverb`` and ``calibration`` left
   at their defaults the pipeline output is byte-identical to a config
   that never mentions them, and the new ``ProcessedRecording`` fields
   sit at their neutral values.
2. **Enabled does real work.**  The rake removes reflections from
   reverberant captures, and the calibration estimator recovers the
   *relative* drift a device accumulated (the absolute offset carries a
   participant-dependent bias, so the differential is the contract).

Equivalence across execution paths with both stages enabled is checked
by ``tests/runtime/test_cross_path.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.reverb import ReverbConfig
from repro.core.config import CalibrationConfig, EarSonarConfig
from repro.core.pipeline import EarSonarPipeline
from repro.simulation import sample_participant
from repro.simulation.calibration import (
    CalibrationDriftConfig,
    DeviceProfile,
    calibration_state,
)
from repro.simulation.session import SessionConfig, record_session


@pytest.fixture(scope="module")
def module_participant():
    return sample_participant(np.random.default_rng(202), "P777")


@pytest.fixture(scope="module")
def reverberant_recording(module_participant):
    config = SessionConfig(
        duration_s=0.1, reverb=ReverbConfig(enabled=True, strength=2.0)
    )
    return record_session(
        module_participant, 0.5, config, np.random.default_rng(11)
    )


@pytest.fixture(scope="module")
def clean_recording(module_participant):
    return record_session(
        module_participant,
        0.5,
        SessionConfig(duration_s=0.1),
        np.random.default_rng(11),
    )


DRIFT = CalibrationDriftConfig(
    enabled=True, gain_drift_db=6.0, tilt_drift_db=0.0, horizon_sessions=1
)


@pytest.fixture(scope="module")
def drifted_recording(module_participant):
    config = SessionConfig(duration_s=0.1, calibration=DRIFT, device_unit=3)
    return record_session(
        module_participant, 10.0, config, np.random.default_rng(11)
    )


class TestDisabledPathBitIdentity:
    def test_explicit_disabled_configs_match_the_default(self, recording):
        default = EarSonarPipeline().process(recording)
        explicit = EarSonarPipeline(
            EarSonarConfig(
                reverb=ReverbConfig(), calibration=CalibrationConfig()
            )
        ).process(recording)
        assert explicit.features.tobytes() == default.features.tobytes()
        assert explicit.curve.tobytes() == default.curve.tobytes()
        assert explicit.confidence == default.confidence

    def test_disabled_stages_report_neutral_values(self, recording):
        processed = EarSonarPipeline().process(recording)
        assert processed.calibration_offset_db == 0.0
        assert processed.num_reflections_removed == 0
        assert "calibration_unstable" not in processed.quality_reasons


class TestRakeStage:
    def test_reverberant_capture_loses_reflections(self, reverberant_recording):
        pipeline = EarSonarPipeline(
            EarSonarConfig(reverb=ReverbConfig(enabled=True))
        )
        processed = pipeline.process(reverberant_recording)
        assert processed.num_reflections_removed > 0

    def test_rake_changes_the_features(self, reverberant_recording):
        raked = EarSonarPipeline(
            EarSonarConfig(reverb=ReverbConfig(enabled=True))
        ).process(reverberant_recording)
        naive = EarSonarPipeline().process(reverberant_recording)
        assert raked.features.tobytes() != naive.features.tobytes()

    def test_rake_off_pipeline_never_reports_removals(
        self, reverberant_recording
    ):
        processed = EarSonarPipeline().process(reverberant_recording)
        assert processed.num_reflections_removed == 0


class TestCalibrationStage:
    PIPELINE_CONFIG = EarSonarConfig(calibration=CalibrationConfig(enabled=True))

    def test_recovers_the_relative_drift(
        self, drifted_recording, clean_recording
    ):
        # The estimator reads an absolute offset with a per-participant
        # bias; subtracting the same device's undrifted reading isolates
        # the drift itself, which must match what the simulator applied.
        pipeline = EarSonarPipeline(self.PIPELINE_CONFIG)
        drifted = pipeline.process(drifted_recording)
        clean = pipeline.process(clean_recording)
        applied = calibration_state(DeviceProfile(unit_id=3), DRIFT, 10)
        recovered = drifted.calibration_offset_db - clean.calibration_offset_db
        assert recovered == pytest.approx(applied.gain_db, abs=2.0)

    def test_offset_respects_the_clamp(self, drifted_recording):
        clamped = EarSonarPipeline(
            EarSonarConfig(
                calibration=CalibrationConfig(enabled=True, max_offset_db=2.0)
            )
        ).process(drifted_recording)
        assert abs(clamped.calibration_offset_db) <= 2.0 + 1e-9

    def test_instability_downgrades_confidence(self, clean_recording):
        stable = EarSonarPipeline(self.PIPELINE_CONFIG).process(clean_recording)
        config = EarSonarConfig(
            calibration=CalibrationConfig(enabled=True, instability_db=1e-6)
        )
        shaky = EarSonarPipeline(config).process(clean_recording)
        assert "calibration_unstable" in shaky.quality_reasons
        assert "calibration_unstable" not in stable.quality_reasons
        assert shaky.confidence == pytest.approx(
            stable.confidence * config.calibration.unstable_confidence
        )

    def test_correction_changes_the_features(self, drifted_recording):
        corrected = EarSonarPipeline(self.PIPELINE_CONFIG).process(
            drifted_recording
        )
        naive = EarSonarPipeline().process(drifted_recording)
        assert corrected.features.tobytes() != naive.features.tobytes()
