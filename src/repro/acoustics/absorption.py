"""Frequency-dependent eardrum reflectance: the ~18 kHz acoustic dip.

The paper's empirical finding (Sec. II-B, Fig. 2) is that the probe
band's amplitude spectrum shows a pronounced *acoustic dip* near 18 kHz
whose depth, width, and centre track the middle-ear effusion state.
Physically this is the middle-ear resonance: fluid behind the drum

* **mass-loads** the drum, lowering the resonance frequency (denser
  fluid and fuller cavity shift the dip down),
* **raises absorption** at resonance (impedance mismatch, Eq. (1)-(2)),
* **broadens** the dip (viscous damping widens the resonance).

:class:`EardrumReflectanceModel` turns those three mechanisms into an
amplitude reflectance curve ``r(f)`` in (0, 1] that the multipath
channel applies to the eardrum path.  Constants are calibrated so the
simulated spectra match the paper's figures in shape: a clear ear keeps
a shallow dip; serous/mucoid/purulent ears darken and widen it in that
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .media import WATER, Medium

__all__ = ["EffusionLoad", "EardrumReflectanceModel"]


@dataclass(frozen=True)
class EffusionLoad:
    """The fluid load behind an eardrum.

    Attributes
    ----------
    fluid:
        The effusion medium (serous / mucoid / purulent).
    fill_fraction:
        Fraction of the middle-ear cavity filled, in [0, 1].
    """

    fluid: Medium
    fill_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fill_fraction <= 1.0:
            raise ConfigurationError(
                f"fill_fraction must be in [0, 1], got {self.fill_fraction}"
            )


@dataclass(frozen=True)
class EardrumReflectanceModel:
    """Parametric reflectance of one ear's drum across the probe band.

    Attributes
    ----------
    base_reflectance:
        Broadband amplitude reflectance of the drum away from
        resonance; healthy drums reflect most of the 16-20 kHz energy.
    resonance_hz:
        The unloaded (clear-ear) middle-ear resonance; per-participant
        anatomy scatters this around 18 kHz.
    clear_dip_depth:
        Fractional dip depth with no effusion (healthy ears still
        absorb a little at resonance).
    clear_dip_width_hz:
        Half-width of the clear-ear resonance dip.
    max_extra_depth:
        Additional depth available to a fully loaded drum; total depth
        saturates at ``clear_dip_depth + max_extra_depth``.
    mass_shift_fraction:
        Maximal fractional downward shift of the resonance at full
        fill with a water-density fluid.
    """

    base_reflectance: float = 0.92
    resonance_hz: float = 18_200.0
    clear_dip_depth: float = 0.12
    clear_dip_width_hz: float = 650.0
    max_extra_depth: float = 0.72
    mass_shift_fraction: float = 0.075

    def __post_init__(self) -> None:
        if not 0.0 < self.base_reflectance <= 1.0:
            raise ConfigurationError(
                f"base_reflectance must be in (0, 1], got {self.base_reflectance}"
            )
        if self.resonance_hz <= 0:
            raise ConfigurationError(f"resonance_hz must be positive, got {self.resonance_hz}")
        if not 0.0 <= self.clear_dip_depth < 1.0:
            raise ConfigurationError(
                f"clear_dip_depth must be in [0, 1), got {self.clear_dip_depth}"
            )
        if self.clear_dip_depth + self.max_extra_depth >= 1.0:
            raise ConfigurationError("total dip depth must stay below 1")
        if self.clear_dip_width_hz <= 0:
            raise ConfigurationError("clear_dip_width_hz must be positive")

    # ------------------------------------------------------------------
    # Derived dip parameters
    # ------------------------------------------------------------------

    def dip_center_hz(self, load: EffusionLoad | None) -> float:
        """Resonance (dip centre) under the given load, in Hz.

        Mass loading: the shift scales with fill fraction and with the
        fluid's density relative to water.
        """
        if load is None or load.fill_fraction == 0.0:
            return self.resonance_hz
        density_ratio = load.fluid.density / WATER.density
        shift = self.mass_shift_fraction * load.fill_fraction * density_ratio
        return self.resonance_hz * (1.0 - shift)

    def dip_depth(self, load: EffusionLoad | None) -> float:
        """Fractional amplitude dip depth under the given load.

        Depth grows with fill fraction and the fluid/air impedance
        mismatch, saturating via ``tanh`` in the spirit of the paper's
        thickness-impedance relation (Eq. (2)).
        """
        if load is None or load.fill_fraction == 0.0:
            return self.clear_dip_depth
        impedance_ratio = load.fluid.impedance / WATER.impedance
        drive = 2.0 * load.fill_fraction * impedance_ratio
        return self.clear_dip_depth + self.max_extra_depth * float(np.tanh(drive))

    def dip_width_hz(self, load: EffusionLoad | None) -> float:
        """Dip half-width under the given load, in Hz.

        Viscous damping broadens the resonance; width grows with the
        logarithm of the viscosity ratio to water and with fill.
        """
        if load is None or load.fill_fraction == 0.0:
            return self.clear_dip_width_hz
        viscosity_ratio = load.fluid.viscosity / max(WATER.viscosity, 1e-9)
        broadening = 1.0 + 0.75 * np.log10(1.0 + viscosity_ratio) * load.fill_fraction
        return float(self.clear_dip_width_hz * broadening)

    # ------------------------------------------------------------------
    # Reflectance curves
    # ------------------------------------------------------------------

    def reflectance(
        self, frequencies_hz: np.ndarray, load: EffusionLoad | None = None
    ) -> np.ndarray:
        """Amplitude reflectance ``r(f)`` in (0, 1] at each frequency.

        The dip is Lorentzian — the lineshape of a damped resonance —
        centred at :meth:`dip_center_hz` with depth :meth:`dip_depth`
        and half-width :meth:`dip_width_hz`.
        """
        freqs = np.asarray(frequencies_hz, dtype=float)
        center = self.dip_center_hz(load)
        depth = self.dip_depth(load)
        width = self.dip_width_hz(load)
        lorentz = width**2 / ((freqs - center) ** 2 + width**2)
        r = self.base_reflectance * (1.0 - depth * lorentz)
        return np.clip(r, 0.02, 1.0)

