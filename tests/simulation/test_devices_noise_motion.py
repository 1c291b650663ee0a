"""Tests for earphone models, ambient noise, motion artifacts, hardware."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.earphone import COMMERCIAL_EARPHONES, PROTOTYPE, EarphoneModel
from repro.simulation.hardware import (
    SMARTPHONE_PROFILES,
    SmartphoneProfile,
    StageLatencies,
    estimate_power_mw,
)
from repro.simulation.motion import (
    MOVEMENT_PROFILES,
    Movement,
    MovementProfile,
    motion_artifact,
)
from repro.simulation.noise import ambient_noise, pink_noise, spl_to_amplitude

FS = 48_000.0


class TestEarphones:
    def test_transfer_positive_and_rippled(self):
        freqs = np.linspace(15_000.0, 21_000.0, 200)
        for model in (PROTOTYPE,) + COMMERCIAL_EARPHONES:
            h = model.transfer(freqs)
            assert np.all(h > 0.0)
            ripple_db = 20.0 * (np.log10(h.max()) - np.log10(h.min()))
            assert ripple_db <= model.ripple_db + 0.5

    def test_transfer_is_deterministic(self):
        freqs = np.linspace(15_000.0, 21_000.0, 50)
        np.testing.assert_allclose(PROTOTYPE.transfer(freqs), PROTOTYPE.transfer(freqs))

    def test_devices_differ(self):
        freqs = np.linspace(15_000.0, 21_000.0, 50)
        a, b = COMMERCIAL_EARPHONES[0], COMMERCIAL_EARPHONES[1]
        assert not np.allclose(a.transfer(freqs), b.transfer(freqs))

    def test_mic_noise_sigma_follows_snr(self):
        assert PROTOTYPE.mic_noise_sigma(1.0) == pytest.approx(
            10 ** (-PROTOTYPE.mic_snr_db / 20.0)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EarphoneModel("bad", sensitivity=0.0)
        with pytest.raises(ConfigurationError):
            EarphoneModel("bad", mic_snr_db=0.0)


class TestNoise:
    def test_pink_noise_unit_rms(self, rng):
        noise = pink_noise(4096, rng)
        assert np.sqrt(np.mean(noise**2)) == pytest.approx(1.0, rel=1e-6)

    def test_pink_noise_spectrum_slopes_down(self, rng):
        noise = pink_noise(1 << 15, rng)
        spectrum = np.abs(np.fft.rfft(noise)) ** 2
        low = spectrum[10:100].mean()
        high = spectrum[5000:10000].mean()
        assert low > 10.0 * high

    def test_spl_scaling_20db_is_10x(self):
        assert spl_to_amplitude(60.0) / spl_to_amplitude(40.0) == pytest.approx(10.0)

    def test_ambient_noise_rms_grows_with_spl(self, rng):
        quiet = ambient_noise(8192, FS, 40.0, rng)
        loud = ambient_noise(8192, FS, 70.0, rng)
        assert np.sqrt(np.mean(loud**2)) > 10.0 * np.sqrt(np.mean(quiet**2))

    def test_seal_attenuates(self, rng):
        sealed = ambient_noise(8192, FS, 60.0, np.random.default_rng(1), seal_quality=1.0)
        leaky = ambient_noise(8192, FS, 60.0, np.random.default_rng(1), seal_quality=0.3)
        assert np.sqrt(np.mean(leaky**2)) > np.sqrt(np.mean(sealed**2))

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            pink_noise(0, rng)
        with pytest.raises(ConfigurationError):
            ambient_noise(100, FS, 50.0, rng, seal_quality=0.0)


class TestMotion:
    def test_profiles_cover_all_movements(self):
        assert set(MOVEMENT_PROFILES) == set(Movement)

    def test_artifact_energy_ordering(self):
        """Sit < head < walking-scale artifacts (Fig. 14c-d premise)."""
        energies = {}
        for movement in Movement:
            rng = np.random.default_rng(7)
            artifact = motion_artifact(MOVEMENT_PROFILES[movement], 48_000, FS, rng)
            energies[movement] = float(np.mean(artifact**2))
        assert energies[Movement.SIT] < energies[Movement.HEAD]
        assert energies[Movement.HEAD] < energies[Movement.WALKING]

    def test_sit_has_tiny_artifact(self):
        rng = np.random.default_rng(0)
        artifact = motion_artifact(MOVEMENT_PROFILES[Movement.SIT], 9600, FS, rng)
        assert np.sqrt(np.mean(artifact**2)) < 0.001

    def test_angle_jitter_scales(self):
        rng = np.random.default_rng(0)
        sit = [MOVEMENT_PROFILES[Movement.SIT].sample_angle_jitter(rng) for _ in range(50)]
        rng = np.random.default_rng(0)
        walk = [
            MOVEMENT_PROFILES[Movement.WALKING].sample_angle_jitter(rng) for _ in range(50)
        ]
        assert np.mean(walk) > np.mean(sit)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MovementProfile(Movement.SIT, -1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            MovementProfile(Movement.SIT, 0.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            motion_artifact(MOVEMENT_PROFILES[Movement.SIT], 0, FS, np.random.default_rng(0))


class TestHardware:
    def test_latency_totals(self):
        lat = StageLatencies(1.32, 35.89, 1.2)
        assert lat.total_ms == pytest.approx(38.41)
        assert lat.dominant_stage == "feature_extract"

    def test_latency_validation(self):
        with pytest.raises(ConfigurationError):
            StageLatencies(-1.0, 1.0, 1.0)

    def test_power_in_paper_band(self):
        """Table III: all three phones draw ~2.1-2.25 W."""
        lat = StageLatencies(1.32, 35.89, 1.2)
        for profile in SMARTPHONE_PROFILES.values():
            power = estimate_power_mw(profile, lat)
            assert 2_000.0 < power < 2_300.0

    def test_power_ordering_matches_paper(self):
        """Table III ordering: Huawei < Galaxy < MI 10."""
        lat = StageLatencies(1.32, 35.89, 1.2)
        values = [
            estimate_power_mw(SMARTPHONE_PROFILES[n], lat)
            for n in ("Huawei", "Galaxy", "MI 10")
        ]
        assert values[0] < values[1] < values[2]

    def test_faster_pipeline_draws_less(self):
        profile = SMARTPHONE_PROFILES["Huawei"]
        slow = estimate_power_mw(profile, StageLatencies(1.32, 35.89, 1.2))
        fast = estimate_power_mw(profile, StageLatencies(0.5, 10.0, 0.5))
        assert fast < slow

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            SmartphoneProfile("bad", baseline_mw=0.0, compute_mw=100.0)
        with pytest.raises(ConfigurationError):
            SmartphoneProfile("bad", baseline_mw=100.0, compute_mw=100.0, duty_cycle=0.0)
