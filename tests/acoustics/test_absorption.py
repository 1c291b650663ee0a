"""Tests for the eardrum reflectance (acoustic dip) model."""

import numpy as np
import pytest

from repro.acoustics.absorption import EardrumReflectanceModel, EffusionLoad
from repro.acoustics.media import MUCOID_FLUID, PURULENT_FLUID, SEROUS_FLUID
from repro.errors import ConfigurationError

GRID = np.linspace(16_000.0, 20_000.0, 256)


def _load(fluid, fill):
    return EffusionLoad(fluid, fill)


class TestValidation:
    def test_invalid_fill(self):
        with pytest.raises(ConfigurationError):
            EffusionLoad(SEROUS_FLUID, -0.1)
        with pytest.raises(ConfigurationError):
            EffusionLoad(SEROUS_FLUID, 1.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_reflectance": 0.0},
            {"base_reflectance": 1.2},
            {"resonance_hz": -1.0},
            {"clear_dip_depth": 1.0},
            {"clear_dip_depth": 0.5, "max_extra_depth": 0.6},
            {"clear_dip_width_hz": 0.0},
        ],
    )
    def test_invalid_model(self, kwargs):
        with pytest.raises(ConfigurationError):
            EardrumReflectanceModel(**kwargs)


class TestDipParameters:
    def test_clear_ear_uses_baseline(self):
        model = EardrumReflectanceModel()
        assert model.dip_center_hz(None) == model.resonance_hz
        assert model.dip_depth(None) == model.clear_dip_depth
        assert model.dip_width_hz(None) == model.clear_dip_width_hz

    def test_center_shifts_down_with_fill(self):
        model = EardrumReflectanceModel()
        centers = [
            model.dip_center_hz(_load(SEROUS_FLUID, f)) for f in (0.0, 0.3, 0.6, 0.9)
        ]
        assert all(b < a for a, b in zip(centers[1:], centers[2:]))
        assert centers[0] == model.resonance_hz

    def test_denser_fluid_shifts_more(self):
        model = EardrumReflectanceModel()
        assert model.dip_center_hz(_load(PURULENT_FLUID, 0.5)) < model.dip_center_hz(
            _load(SEROUS_FLUID, 0.5)
        )

    def test_depth_grows_with_fill(self):
        model = EardrumReflectanceModel()
        depths = [model.dip_depth(_load(MUCOID_FLUID, f)) for f in (0.1, 0.4, 0.7, 1.0)]
        assert all(b > a for a, b in zip(depths, depths[1:]))

    def test_depth_bounded_below_one(self):
        model = EardrumReflectanceModel()
        assert model.dip_depth(_load(PURULENT_FLUID, 1.0)) < 1.0

    def test_width_grows_with_viscosity(self):
        model = EardrumReflectanceModel()
        w_serous = model.dip_width_hz(_load(SEROUS_FLUID, 0.6))
        w_mucoid = model.dip_width_hz(_load(MUCOID_FLUID, 0.6))
        w_purulent = model.dip_width_hz(_load(PURULENT_FLUID, 0.6))
        assert w_serous < w_mucoid < w_purulent


class TestReflectanceCurve:
    def test_bounds(self):
        model = EardrumReflectanceModel()
        for load in (None, _load(PURULENT_FLUID, 0.95)):
            r = model.reflectance(GRID, load)
            assert np.all(r > 0.0)
            assert np.all(r <= 1.0)

    def test_dip_is_at_center(self):
        model = EardrumReflectanceModel()
        load = _load(MUCOID_FLUID, 0.6)
        r = model.reflectance(GRID, load)
        dip_freq = GRID[np.argmin(r)]
        assert dip_freq == pytest.approx(model.dip_center_hz(load), abs=20.0)

    def test_effusion_deepens_dip(self):
        """Core paper finding (Fig. 2): fluid absorbs more at the dip."""
        model = EardrumReflectanceModel()
        clear = model.reflectance(GRID)
        for fluid in (SEROUS_FLUID, MUCOID_FLUID, PURULENT_FLUID):
            sick = model.reflectance(GRID, _load(fluid, 0.8))
            assert np.min(sick) < np.min(clear)

    def test_absorption_ordering_by_state_severity(self):
        """Serous < mucoid < purulent in absorbed band energy (Fig. 11)."""
        model = EardrumReflectanceModel()
        absorbed = {}
        for fluid, fill in (
            (SEROUS_FLUID, 0.3),
            (MUCOID_FLUID, 0.58),
            (PURULENT_FLUID, 0.85),
        ):
            reflectance = model.reflectance(GRID, _load(fluid, fill))
            absorbed[fluid.name] = float(np.mean(1.0 - reflectance**2))
        assert absorbed["serous"] < absorbed["mucoid"] < absorbed["purulent"]

    def test_far_from_resonance_near_baseline(self):
        model = EardrumReflectanceModel(resonance_hz=18_000.0)
        r = model.reflectance(np.array([10_000.0]), _load(MUCOID_FLUID, 0.6))
        assert r[0] == pytest.approx(model.base_reflectance, rel=0.1)
