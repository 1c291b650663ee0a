"""Tests for the multipath channel and the ear-canal channel builder."""

import numpy as np
import pytest

from repro.acoustics.absorption import EardrumReflectanceModel, EffusionLoad
from repro.acoustics.ear import (
    CANAL_SOUND_SPEED,
    EarCanalGeometry,
    InsertionState,
    build_ear_channel,
)
from repro.acoustics.media import PURULENT_FLUID
from repro.acoustics.propagation import MultipathChannel, PropagationPath
from repro.errors import ConfigurationError

FS = 48_000.0


def _impulse(length: int) -> np.ndarray:
    """A unit impulse at sample 0."""
    impulse = np.zeros(length)
    impulse[0] = 1.0
    return impulse


class TestPropagationPath:
    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            PropagationPath(delay_s=-1e-3, gain=1.0)


class TestMultipathChannel:
    def test_single_path_delays_impulse(self):
        delay_samples = 16
        channel = MultipathChannel([PropagationPath(delay_samples / FS, 0.5)])
        h = channel.apply(_impulse(64), FS, extra_samples=0)
        assert np.argmax(np.abs(h)) == delay_samples
        assert h[delay_samples] == pytest.approx(0.5, abs=1e-6)

    def test_two_paths_superpose(self):
        channel = MultipathChannel(
            [PropagationPath(0.0, 1.0), PropagationPath(10 / FS, 0.25)]
        )
        h = channel.apply(_impulse(32), FS, extra_samples=0)
        assert h[0] == pytest.approx(1.0, abs=1e-6)
        assert h[10] == pytest.approx(0.25, abs=1e-6)

    def test_fractional_delay_preserves_energy(self):
        channel = MultipathChannel([PropagationPath(10.5 / FS, 1.0)])
        t = np.arange(480) / FS
        tone = np.sin(2 * np.pi * 18_000.0 * t)
        out = channel.apply(tone, FS)
        assert np.sum(out**2) == pytest.approx(np.sum(tone**2), rel=0.05)

    def test_transfer_function_linearity(self, rng):
        p1 = PropagationPath(1e-4, 0.7)
        p2 = PropagationPath(3e-4, 0.2)
        freqs = rng.uniform(100.0, 20_000.0, 32)
        h_both = MultipathChannel([p1, p2]).transfer_function(freqs)
        h_sum = (
            MultipathChannel([p1]).transfer_function(freqs)
            + MultipathChannel([p2]).transfer_function(freqs)
        )
        np.testing.assert_allclose(h_both, h_sum, atol=1e-12)

    def test_phase_offset_rotates_response(self):
        freqs = np.array([18_000.0])
        base = MultipathChannel([PropagationPath(0.0, 1.0)]).transfer_function(freqs)
        rotated = MultipathChannel(
            [PropagationPath(0.0, 1.0, phase=np.pi)]
        ).transfer_function(freqs)
        np.testing.assert_allclose(rotated, -base, atol=1e-12)

    def test_response_shapes_spectrum(self):
        def notch(freqs):
            return np.where(np.abs(freqs - 18_000.0) < 500.0, 0.0, 1.0)

        channel = MultipathChannel([PropagationPath(0.0, 1.0, response=notch)])
        t = np.arange(4800) / FS
        tone_in = np.sin(2 * np.pi * 18_000.0 * t)
        tone_out = channel.apply(tone_in, FS)
        assert np.sqrt(np.mean(tone_out**2)) < 0.05

    def test_empty_channel_returns_zeros(self):
        channel = MultipathChannel()
        np.testing.assert_allclose(channel.apply(np.ones(16), FS), np.zeros(16))

    def test_empty_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            MultipathChannel([PropagationPath(0.0, 1.0)]).apply(np.array([]), FS)


class TestEarChannel:
    def _channel(self, angle=0.0, load=None, length=0.026):
        geometry = EarCanalGeometry(length_m=length)
        model = EardrumReflectanceModel()
        insertion = InsertionState(angle_deg=angle)
        return build_ear_channel(geometry, model, load, insertion)

    def test_has_expected_paths(self):
        labels = [p.label for p in self._channel().paths]
        assert "direct" in labels
        assert "eardrum" in labels
        assert any(l.startswith("canal-wall") for l in labels)
        assert "eardrum-double" in labels

    def test_eardrum_delay_matches_geometry(self):
        channel = self._channel(length=0.028)
        drum = next(p for p in channel.paths if p.label == "eardrum")
        free_len = 0.028 - InsertionState().depth_m
        assert drum.delay_s == pytest.approx(2 * free_len / CANAL_SOUND_SPEED)

    def test_angle_weakens_drum_strengthens_walls(self):
        straight = self._channel(angle=0.0)
        angled = self._channel(angle=40.0)

        def gain(channel, label):
            return next(p for p in channel.paths if p.label == label).gain

        assert gain(angled, "eardrum") < gain(straight, "eardrum")
        assert gain(angled, "canal-wall-a") > gain(straight, "canal-wall-a")

    def test_effusion_shapes_drum_path(self):
        load = EffusionLoad(PURULENT_FLUID, 0.85)
        clear = self._channel(load=None)
        sick = self._channel(load=load)
        freqs = np.linspace(16_000.0, 20_000.0, 64)

        def drum_response(channel):
            p = next(p for p in channel.paths if p.label == "eardrum")
            return p.gain * p.response(freqs)

        assert np.min(drum_response(sick)) < np.min(drum_response(clear))

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            EarCanalGeometry(length_m=0.005)
        with pytest.raises(ConfigurationError):
            EarCanalGeometry(wall_reflectivity=1.0)

    def test_insertion_validation(self):
        with pytest.raises(ConfigurationError):
            InsertionState(angle_deg=120.0)
        with pytest.raises(ConfigurationError):
            InsertionState(seal_quality=0.0)

    def test_axial_alignment_decreases_with_angle(self):
        angles = [0.0, 10.0, 20.0, 40.0]
        alignments = [InsertionState(angle_deg=a).axial_alignment for a in angles]
        assert all(b < a for a, b in zip(alignments, alignments[1:]))
        assert alignments[0] == pytest.approx(1.0)
