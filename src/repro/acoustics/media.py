"""Acoustic media and their bulk properties.

The paper's physical story (Sec. II-A) is impedance-driven: the
characteristic impedance ``Z0 = rho0 * c0`` of the fluid behind the
eardrum controls how much probe energy is absorbed rather than
reflected.  This module defines the media involved and literature-based
property values:

* water, the reference the effusions sit close to,
* the three clinical effusion fluids the paper distinguishes —
  *serous* (thin, watery), *mucoid* (thick, glue-ear), *purulent*
  (pus-laden) — whose density, sound speed and especially viscosity
  increase in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["Medium", "WATER", "SEROUS_FLUID", "MUCOID_FLUID", "PURULENT_FLUID"]


@dataclass(frozen=True)
class Medium:
    """A homogeneous acoustic medium.

    Attributes
    ----------
    name:
        Human-readable label.
    density:
        Mass density ``rho0`` in kg/m^3.
    sound_speed:
        Longitudinal sound speed ``c0`` in m/s.
    viscosity:
        Dynamic viscosity in Pa*s; drives the absorption bandwidth of
        the effusion notch (thicker fluids damp over a wider band).
    """

    name: str
    density: float
    sound_speed: float
    viscosity: float = 0.0

    def __post_init__(self) -> None:
        if self.density <= 0:
            raise ConfigurationError(f"density must be positive, got {self.density}")
        if self.sound_speed <= 0:
            raise ConfigurationError(f"sound_speed must be positive, got {self.sound_speed}")
        if self.viscosity < 0:
            raise ConfigurationError(f"viscosity must be >= 0, got {self.viscosity}")

    @property
    def impedance(self) -> float:
        """Characteristic acoustic impedance ``Z0 = rho0 * c0`` (rayl)."""
        return self.density * self.sound_speed


#: Pure water reference (Ludwig 1950 gives soft tissue close to this).
WATER = Medium("water", density=998.0, sound_speed=1482.0, viscosity=1.0e-3)

#: Serous effusion: thin transudate, close to water.
SEROUS_FLUID = Medium("serous", density=1010.0, sound_speed=1500.0, viscosity=2.0e-3)

#: Mucoid effusion ("glue ear"): thick, mucin-rich.
MUCOID_FLUID = Medium("mucoid", density=1040.0, sound_speed=1520.0, viscosity=0.25)

#: Purulent effusion: cell- and debris-laden pus, the most viscous.
PURULENT_FLUID = Medium("purulent", density=1150.0, sound_speed=1580.0, viscosity=0.9)
