"""Tests for per-device calibration state and longitudinal drift.

The drift walk must be a pure function of ``(config, unit, session)``
— query order must not matter — and the disabled path must be an exact
identity so drift-off studies stay bit-identical to the seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.signal.chirp import ChirpDesign
from repro.simulation import SessionConfig, record_session
from repro.simulation.calibration import (
    DRIFT_CLAMP_SIGMA,
    CalibrationDriftConfig,
    CalibrationState,
    DeviceProfile,
    apply_calibration,
    calibration_state,
)
from repro.simulation.earphone import BOSE_QC20, PROTOTYPE

ENABLED = CalibrationDriftConfig(enabled=True)
CHIRP = ChirpDesign()


class TestConfigValidation:
    def test_defaults_are_disabled(self):
        assert CalibrationDriftConfig().enabled is False

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CalibrationDriftConfig(gain_drift_db=-1.0),
            lambda: CalibrationDriftConfig(tilt_drift_db=-0.5),
            lambda: CalibrationDriftConfig(horizon_sessions=0),
            lambda: DeviceProfile(unit_id=-1),
        ],
    )
    def test_out_of_range_parameters_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_negative_session_rejected(self):
        with pytest.raises(ConfigurationError):
            calibration_state(DeviceProfile(), ENABLED, -1)


class TestDriftWalk:
    def test_factory_fresh_is_identity(self):
        state = calibration_state(DeviceProfile(), ENABLED, 0)
        assert state.is_identity
        assert state.session_index == 0

    def test_disabled_config_is_identity_at_any_session(self):
        state = calibration_state(DeviceProfile(), CalibrationDriftConfig(), 40)
        assert state.is_identity
        assert state.session_index == 40

    def test_pure_function_of_its_arguments(self):
        a = calibration_state(DeviceProfile(), ENABLED, 12)
        b = calibration_state(DeviceProfile(), ENABLED, 12)
        assert a == b

    def test_query_order_does_not_matter(self):
        late_first = calibration_state(DeviceProfile(), ENABLED, 20)
        early = calibration_state(DeviceProfile(), ENABLED, 5)
        late_again = calibration_state(DeviceProfile(), ENABLED, 20)
        assert late_first == late_again
        assert early != late_first

    def test_units_of_one_sku_drift_independently(self):
        fleet = [DeviceProfile(model=PROTOTYPE, unit_id=i) for i in range(3)]
        states = [calibration_state(unit, ENABLED, 15) for unit in fleet]
        gains = {state.gain_db for state in states}
        assert len(gains) == 3

    def test_skus_drift_independently(self):
        a = calibration_state(DeviceProfile(model=PROTOTYPE), ENABLED, 15)
        b = calibration_state(DeviceProfile(model=BOSE_QC20), ENABLED, 15)
        assert (a.gain_db, a.tilt_db) != (b.gain_db, b.tilt_db)

    def test_walk_is_clamped(self):
        config = CalibrationDriftConfig(
            enabled=True, gain_drift_db=1.0, tilt_drift_db=1.0, horizon_sessions=1
        )
        for session in range(1, 200, 20):
            state = calibration_state(DeviceProfile(), config, session)
            assert abs(state.gain_db) <= DRIFT_CLAMP_SIGMA * config.gain_drift_db
            assert abs(state.tilt_db) <= DRIFT_CLAMP_SIGMA * config.tilt_drift_db

    def test_rms_reaches_configured_magnitude_at_horizon(self):
        # Over a fleet of units the RMS gain at the horizon session
        # should approximate gain_drift_db (clamping trims the tail).
        config = CalibrationDriftConfig(enabled=True, gain_drift_db=2.0)
        fleet = [DeviceProfile(model=PROTOTYPE, unit_id=i) for i in range(200)]
        gains = np.array(
            [
                calibration_state(unit, config, config.horizon_sessions).gain_db
                for unit in fleet
            ]
        )
        rms = float(np.sqrt(np.mean(gains**2)))
        assert 0.5 * config.gain_drift_db < rms < 1.5 * config.gain_drift_db


class TestApplyCalibration:
    def test_identity_state_returns_the_input_object(self):
        waveform = np.ones(64)
        out = apply_calibration(waveform, CalibrationState(), 48_000.0, CHIRP)
        assert out is waveform

    def test_pure_gain_scales_the_rms(self):
        rng = np.random.default_rng(5)
        waveform = rng.standard_normal(4096)
        state = CalibrationState(gain_db=6.0)
        out = apply_calibration(waveform, state, CHIRP.sample_rate, CHIRP)
        ratio = np.sqrt(np.mean(out**2) / np.mean(waveform**2))
        assert ratio == pytest.approx(10.0 ** (6.0 / 20.0), rel=1e-3)

    def test_tilt_boosts_one_edge_and_cuts_the_other(self):
        fs = CHIRP.sample_rate
        t = np.arange(4096) / fs
        low_tone = np.sin(2 * np.pi * CHIRP.start_frequency * t)
        high_tone = np.sin(2 * np.pi * CHIRP.end_frequency * t)
        state = CalibrationState(tilt_db=4.0)
        low_out = apply_calibration(low_tone, state, fs, CHIRP)
        high_out = apply_calibration(high_tone, state, fs, CHIRP)
        low_ratio = np.sqrt(np.mean(low_out**2) / np.mean(low_tone**2))
        high_ratio = np.sqrt(np.mean(high_out**2) / np.mean(high_tone**2))
        assert low_ratio < 1.0 < high_ratio

    def test_empty_waveform_passes_through(self):
        out = apply_calibration(
            np.array([]), CalibrationState(gain_db=3.0), 48_000.0, CHIRP
        )
        assert out.size == 0


class TestSessionIntegration:
    def test_drift_off_session_is_bit_identical_to_seed(self, participant):
        base = SessionConfig(duration_s=0.05)
        explicit = SessionConfig(
            duration_s=0.05, calibration=CalibrationDriftConfig(), device_unit=3
        )
        a = record_session(participant, 1.0, base, np.random.default_rng(9))
        b = record_session(participant, 1.0, explicit, np.random.default_rng(9))
        assert a.waveform.tobytes() == b.waveform.tobytes()

    def test_drift_on_changes_the_capture_after_day_zero(self, participant):
        config = SessionConfig(
            duration_s=0.05,
            calibration=CalibrationDriftConfig(
                enabled=True, gain_drift_db=4.0, horizon_sessions=4
            ),
        )
        clean = record_session(
            participant, 5.0, SessionConfig(duration_s=0.05), np.random.default_rng(9)
        )
        drifted = record_session(participant, 5.0, config, np.random.default_rng(9))
        assert clean.waveform.tobytes() != drifted.waveform.tobytes()

    def test_drift_on_day_zero_is_factory_fresh(self, participant):
        config = SessionConfig(
            duration_s=0.05, calibration=CalibrationDriftConfig(enabled=True)
        )
        clean = record_session(
            participant, 0.5, SessionConfig(duration_s=0.05), np.random.default_rng(9)
        )
        fresh = record_session(participant, 0.5, config, np.random.default_rng(9))
        assert clean.waveform.tobytes() == fresh.waveform.tobytes()

    def test_units_record_different_captures(self, participant):
        def unit_config(unit: int) -> SessionConfig:
            return SessionConfig(
                duration_s=0.05,
                calibration=CalibrationDriftConfig(
                    enabled=True, gain_drift_db=4.0, horizon_sessions=4
                ),
                device_unit=unit,
            )

        a = record_session(
            participant, 5.0, unit_config(0), np.random.default_rng(9)
        )
        b = record_session(
            participant, 5.0, unit_config(1), np.random.default_rng(9)
        )
        assert a.waveform.tobytes() != b.waveform.tobytes()
