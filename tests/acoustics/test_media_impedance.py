"""Tests for acoustic media and their characteristic impedance (Sec. II-A)."""

import pytest

from repro.acoustics.media import (
    MUCOID_FLUID,
    PURULENT_FLUID,
    SEROUS_FLUID,
    WATER,
    Medium,
)
from repro.errors import ConfigurationError


class TestMedium:
    def test_impedance_is_rho_c(self):
        m = Medium("test", density=1000.0, sound_speed=1500.0)
        assert m.impedance == pytest.approx(1.5e6)

    def test_water_impedance(self):
        assert WATER.impedance == pytest.approx(1.48e6, rel=0.01)

    def test_effusion_viscosity_ordering(self):
        # Serous (thin) < mucoid (glue ear) < purulent (pus).
        assert SEROUS_FLUID.viscosity < MUCOID_FLUID.viscosity < PURULENT_FLUID.viscosity

    def test_effusion_density_ordering(self):
        assert SEROUS_FLUID.density < MUCOID_FLUID.density < PURULENT_FLUID.density

    def test_invalid_properties(self):
        with pytest.raises(ConfigurationError):
            Medium("bad", density=0.0, sound_speed=343.0)
        with pytest.raises(ConfigurationError):
            Medium("bad", density=1.2, sound_speed=-1.0)
        with pytest.raises(ConfigurationError):
            Medium("bad", density=1.2, sound_speed=343.0, viscosity=-0.1)
