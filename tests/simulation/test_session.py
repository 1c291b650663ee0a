"""Tests for virtual recording sessions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.earphone import BOSE_QC20
from repro.simulation.effusion import MeeState
from repro.simulation.motion import Movement
from repro.simulation.participant import sample_participant
from repro.simulation.session import Recording, SessionConfig, record_session


class TestSessionConfig:
    def test_defaults(self):
        cfg = SessionConfig()
        assert cfg.num_chirps == 200  # 1 s at 5 ms interval
        assert cfg.angle_deg == 0.0
        assert cfg.movement is Movement.SIT

    def test_validation(self):
        for duration_s in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                SessionConfig(duration_s=duration_s)
        with pytest.raises(ConfigurationError):
            SessionConfig(duration_s=0.006)  # below two chirp intervals
        with pytest.raises(ConfigurationError):
            SessionConfig(angle_deg=75.0)
        for path_jitter_s in (-1e-6, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                SessionConfig(path_jitter_s=path_jitter_s)


class TestRecordSession:
    def test_waveform_length_and_metadata(self, participant, rng):
        cfg = SessionConfig(duration_s=0.1)
        rec = record_session(participant, 0.5, cfg, rng)
        assert rec.waveform.size == 4800
        assert rec.sample_rate == 48_000.0
        assert rec.participant_id == participant.participant_id
        assert rec.duration_s == pytest.approx(0.1)
        assert rec.label == rec.state.value

    def test_ground_truth_follows_trajectory(self, participant, rng):
        cfg = SessionConfig(duration_s=0.05)
        sick = record_session(participant, 0.5, cfg, rng)
        clear = record_session(participant, 19.5, cfg, rng)
        assert sick.state is MeeState.PURULENT
        assert clear.state is MeeState.CLEAR

    def test_reproducible_with_same_seed(self, participant):
        cfg = SessionConfig(duration_s=0.05)
        a = record_session(participant, 1.0, cfg, np.random.default_rng(9))
        b = record_session(participant, 1.0, cfg, np.random.default_rng(9))
        np.testing.assert_allclose(a.waveform, b.waveform)

    def test_different_seeds_differ(self, participant):
        cfg = SessionConfig(duration_s=0.05)
        a = record_session(participant, 1.0, cfg, np.random.default_rng(1))
        b = record_session(participant, 1.0, cfg, np.random.default_rng(2))
        assert not np.allclose(a.waveform, b.waveform)

    def test_in_band_energy_dominates(self, participant, rng):
        """Most received energy sits in the 15-21 kHz probe band."""
        rec = record_session(participant, 0.5, SessionConfig(duration_s=0.1), rng)
        spectrum = np.abs(np.fft.rfft(rec.waveform)) ** 2
        freqs = np.fft.rfftfreq(rec.waveform.size, d=1.0 / rec.sample_rate)
        in_band = spectrum[(freqs > 15_000.0) & (freqs < 21_000.0)].sum()
        assert in_band / spectrum.sum() > 0.8

    def test_noise_level_raises_out_of_band_floor(self, participant):
        cfg_quiet = SessionConfig(duration_s=0.05, noise_spl_db=25.0)
        cfg_loud = SessionConfig(duration_s=0.05, noise_spl_db=75.0)
        quiet = record_session(participant, 0.5, cfg_quiet, np.random.default_rng(3))
        loud = record_session(participant, 0.5, cfg_loud, np.random.default_rng(3))

        def low_band_power(rec):
            spectrum = np.abs(np.fft.rfft(rec.waveform)) ** 2
            freqs = np.fft.rfftfreq(rec.waveform.size, d=1.0 / rec.sample_rate)
            return spectrum[freqs < 10_000.0].sum()

        assert low_band_power(loud) > 10.0 * low_band_power(quiet)

    def test_device_coloration_applied(self, participant):
        base = SessionConfig(duration_s=0.05)
        bose = SessionConfig(duration_s=0.05, earphone=BOSE_QC20)
        a = record_session(participant, 0.5, base, np.random.default_rng(4))
        b = record_session(participant, 0.5, bose, np.random.default_rng(4))
        assert not np.allclose(a.waveform, b.waveform)

    def test_walking_recording_has_more_low_frequency_energy(self, participant):
        sit_cfg = SessionConfig(duration_s=0.1, movement=Movement.SIT)
        walk_cfg = SessionConfig(duration_s=0.1, movement=Movement.WALKING)
        sit = record_session(participant, 0.5, sit_cfg, np.random.default_rng(5))
        walk = record_session(participant, 0.5, walk_cfg, np.random.default_rng(5))

        def rumble(rec):
            spectrum = np.abs(np.fft.rfft(rec.waveform)) ** 2
            freqs = np.fft.rfftfreq(rec.waveform.size, d=1.0 / rec.sample_rate)
            return spectrum[freqs < 1_000.0].sum()

        assert rumble(walk) > rumble(sit)
