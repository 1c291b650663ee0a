"""Tests for the seeded early-reflection (reverb) model.

The contract under test is the robustness-layer discipline: a disabled
config is a byte-for-byte no-op, and an enabled config is a pure
function of its numbers — same config, same canal, same comb.
"""

from __future__ import annotations

import pytest

from repro.acoustics.ear import CANAL_SOUND_SPEED, EarCanalGeometry
from repro.acoustics.reverb import (
    ReflectionTap,
    ReverbConfig,
    reverb_paths,
    reverb_taps,
)
from repro.errors import ConfigurationError

FREE_LENGTH_M = 0.018
WALL_REFLECTIVITY = 0.28


def enabled_config(**overrides) -> ReverbConfig:
    params = {"enabled": True}
    params.update(overrides)
    return ReverbConfig(**params)


class TestConfigValidation:
    def test_defaults_are_disabled(self):
        assert ReverbConfig().enabled is False

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ReverbConfig(num_taps=0),
            lambda: ReverbConfig(strength=-0.1),
            lambda: ReverbConfig(tap_decay=0.0),
            lambda: ReverbConfig(tap_decay=1.0),
            lambda: ReverbConfig(delay_spread=0.0),
            lambda: ReverbConfig(delay_spread=1.0),
            lambda: ReverbConfig(rake_threshold=-0.01),
        ],
    )
    def test_out_of_range_parameters_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()


class TestTaps:
    def test_disabled_config_yields_no_taps(self):
        taps = reverb_taps(
            ReverbConfig(),
            FREE_LENGTH_M,
            WALL_REFLECTIVITY,
            sound_speed=CANAL_SOUND_SPEED,
        )
        assert taps == ()

    def test_zero_strength_yields_no_taps(self):
        taps = reverb_taps(
            enabled_config(strength=0.0),
            FREE_LENGTH_M,
            WALL_REFLECTIVITY,
            sound_speed=CANAL_SOUND_SPEED,
        )
        assert taps == ()

    def test_same_config_same_taps(self):
        args = (FREE_LENGTH_M, WALL_REFLECTIVITY)
        a = reverb_taps(enabled_config(), *args, sound_speed=CANAL_SOUND_SPEED)
        b = reverb_taps(enabled_config(), *args, sound_speed=CANAL_SOUND_SPEED)
        assert a == b

    def test_different_seeds_differ(self):
        args = (FREE_LENGTH_M, WALL_REFLECTIVITY)
        a = reverb_taps(
            enabled_config(tap_seed=0), *args, sound_speed=CANAL_SOUND_SPEED
        )
        b = reverb_taps(
            enabled_config(tap_seed=1), *args, sound_speed=CANAL_SOUND_SPEED
        )
        assert a != b

    def test_taps_precede_the_drum_echo(self):
        round_trip = 2.0 * FREE_LENGTH_M / CANAL_SOUND_SPEED
        config = enabled_config(num_taps=6)
        taps = reverb_taps(
            config, FREE_LENGTH_M, WALL_REFLECTIVITY, sound_speed=CANAL_SOUND_SPEED
        )
        assert len(taps) == 6
        for tap in taps:
            assert 0.0 < tap.delay_s < config.delay_spread * round_trip

    def test_gains_scale_with_strength(self):
        args = (FREE_LENGTH_M, WALL_REFLECTIVITY)
        weak = reverb_taps(
            enabled_config(strength=1.0), *args, sound_speed=CANAL_SOUND_SPEED
        )
        strong = reverb_taps(
            enabled_config(strength=2.0), *args, sound_speed=CANAL_SOUND_SPEED
        )
        for w, s in zip(weak, strong):
            assert s.delay_s == w.delay_s
            assert s.gain == pytest.approx(2.0 * w.gain)

    def test_gains_decay_with_tap_index(self):
        # The wobble is +/-15%; a 0.3 decay ratio dominates it.
        taps = reverb_taps(
            enabled_config(num_taps=5, tap_decay=0.3),
            FREE_LENGTH_M,
            WALL_REFLECTIVITY,
            sound_speed=CANAL_SOUND_SPEED,
        )
        gains = [tap.gain for tap in taps]
        assert all(later < earlier for earlier, later in zip(gains, gains[1:]))

    def test_canal_length_moves_the_taps(self):
        # A different canal produces a different comb under one config.
        geometry = EarCanalGeometry()
        short, long = (
            reverb_taps(
                enabled_config(),
                length_m,
                geometry.wall_reflectivity,
                sound_speed=CANAL_SOUND_SPEED,
            )
            for length_m in (geometry.length_m * 0.5, geometry.length_m)
        )
        assert [tap.delay_s for tap in short] != [tap.delay_s for tap in long]

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ConfigurationError):
            reverb_taps(
                enabled_config(),
                0.0,
                WALL_REFLECTIVITY,
                sound_speed=CANAL_SOUND_SPEED,
            )

    def test_negative_tap_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            ReflectionTap(delay_s=-1e-6, gain=0.1)


class TestPaths:
    def test_labels_never_collide_with_direct(self):
        paths = reverb_paths(
            enabled_config(),
            FREE_LENGTH_M,
            WALL_REFLECTIVITY,
            sound_speed=CANAL_SOUND_SPEED,
        )
        assert len(paths) == 4
        assert all(path.label.startswith("reverb-") for path in paths)
        assert "direct" not in {path.label for path in paths}

    def test_disabled_config_adds_no_paths(self):
        assert (
            reverb_paths(
                ReverbConfig(),
                FREE_LENGTH_M,
                WALL_REFLECTIVITY,
                sound_speed=CANAL_SOUND_SPEED,
            )
            == []
        )
