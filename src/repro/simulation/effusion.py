"""Effusion states and clinical recovery trajectories.

The paper grades middle-ear status into four states — *Clear*,
*Serous*, *Mucoid*, *Purulent* — and follows each child from diagnosis
to recovery over roughly 20 days (Sec. V, VI-A).  Clinically the acute
phase is purulent, thinning through mucoid and serous stages as the
ear drains; this module encodes that progression as a per-participant
:class:`RecoveryTrajectory` with randomised stage boundaries and a
fill fraction that decays within each stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..acoustics.absorption import EffusionLoad
from ..acoustics.media import MUCOID_FLUID, PURULENT_FLUID, SEROUS_FLUID, Medium
from ..errors import SimulationError

__all__ = ["MeeState", "STATE_FLUIDS", "FILL_RANGES", "RecoveryTrajectory"]


class MeeState(Enum):
    """The four middle-ear effusion states the paper classifies."""

    CLEAR = "clear"
    SEROUS = "serous"
    MUCOID = "mucoid"
    PURULENT = "purulent"

    @property
    def is_effusion(self) -> bool:
        """True for any fluid-positive state."""
        return self is not MeeState.CLEAR

    @property
    def severity(self) -> int:
        """Ordinal severity: 0 (clear) .. 3 (purulent)."""
        return _SEVERITY[self]

    @classmethod
    def ordered(cls) -> tuple["MeeState", ...]:
        """States by ascending severity, the paper's reporting order."""
        return (cls.CLEAR, cls.SEROUS, cls.MUCOID, cls.PURULENT)


_SEVERITY = {
    MeeState.CLEAR: 0,
    MeeState.SEROUS: 1,
    MeeState.MUCOID: 2,
    MeeState.PURULENT: 3,
}

#: The fluid medium characterising each fluid-positive state.
STATE_FLUIDS: dict[MeeState, Medium] = {
    MeeState.SEROUS: SEROUS_FLUID,
    MeeState.MUCOID: MUCOID_FLUID,
    MeeState.PURULENT: PURULENT_FLUID,
}

#: Plausible cavity fill-fraction ranges per state: the acute purulent
#: phase fills most of the cavity; serous residue is a thin layer.
FILL_RANGES: dict[MeeState, tuple[float, float]] = {
    MeeState.CLEAR: (0.0, 0.0),
    MeeState.SEROUS: (0.22, 0.38),
    MeeState.MUCOID: (0.50, 0.66),
    MeeState.PURULENT: (0.78, 0.94),
}


@dataclass(frozen=True)
class RecoveryTrajectory:
    """One participant's effusion timeline from admission to recovery.

    Attributes
    ----------
    stage_boundaries:
        Day indices ``(purulent_end, mucoid_end, serous_end)``: the
        participant is purulent on days ``[0, purulent_end)``, mucoid on
        ``[purulent_end, mucoid_end)``, serous on
        ``[mucoid_end, serous_end)``, and clear afterwards.
    initial_fill:
        Cavity fill fraction on day 0.
    """

    stage_boundaries: tuple[int, int, int]
    initial_fill: float

    def __post_init__(self) -> None:
        p_end, m_end, s_end = self.stage_boundaries
        if not 0 < p_end < m_end < s_end:
            raise SimulationError(
                f"stage boundaries must be strictly increasing and positive, "
                f"got {self.stage_boundaries}"
            )
        if not 0.0 < self.initial_fill <= 1.0:
            raise SimulationError(f"initial_fill must be in (0, 1], got {self.initial_fill}")

    @classmethod
    def sample(cls, rng: np.random.Generator, *, total_days: int = 20) -> "RecoveryTrajectory":
        """Draw a plausible trajectory: ~1/3 of the course per stage.

        ``total_days`` is the nominal follow-up length; the clear stage
        begins a few days before its end so every participant
        contributes all four states to the study, as the paper's data
        collection does.
        """
        if total_days < 8:
            raise SimulationError(f"total_days must be >= 8, got {total_days}")
        third = total_days / 4.0
        p_end = int(np.clip(rng.normal(third, 1.2), 2, total_days - 6))
        m_end = int(np.clip(rng.normal(2 * third, 1.4), p_end + 2, total_days - 4))
        s_end = int(np.clip(rng.normal(3 * third, 1.4), m_end + 2, total_days - 1))
        initial_fill = float(rng.uniform(*FILL_RANGES[MeeState.PURULENT]))
        return cls((p_end, m_end, s_end), initial_fill)

    def state_at(self, day: float) -> MeeState:
        """Ground-truth effusion state on ``day`` (0-based)."""
        # NaN compares false against every boundary and +inf passes
        # them all, so either would silently read as CLEAR.
        if not (np.isfinite(day) and day >= 0):
            raise SimulationError(f"day must be finite and >= 0, got {day}")
        p_end, m_end, s_end = self.stage_boundaries
        if day < p_end:
            return MeeState.PURULENT
        if day < m_end:
            return MeeState.MUCOID
        if day < s_end:
            return MeeState.SEROUS
        return MeeState.CLEAR

    def fill_fraction_at(self, day: float, rng: np.random.Generator | None = None) -> float:
        """Cavity fill fraction on ``day``: decays within each stage.

        Within a stage the fill interpolates from the stage range's top
        toward its bottom, with optional measurement-scale jitter.
        """
        state = self.state_at(day)
        lo, hi = FILL_RANGES[state]
        if state is MeeState.CLEAR:
            return 0.0
        p_end, m_end, s_end = self.stage_boundaries
        spans = {
            MeeState.PURULENT: (0.0, float(p_end)),
            MeeState.MUCOID: (float(p_end), float(m_end)),
            MeeState.SEROUS: (float(m_end), float(s_end)),
        }
        start, end = spans[state]
        progress = 0.0 if end <= start else np.clip((day - start) / (end - start), 0.0, 1.0)
        fill = hi - (hi - lo) * progress
        if state is MeeState.PURULENT:
            # Anchor the acute phase at this participant's initial fill.
            fill = self.initial_fill - (self.initial_fill - lo) * progress
        if rng is not None:
            fill += rng.normal(0.0, 0.02)
        return float(np.clip(fill, lo if state.is_effusion else 0.0, hi if hi > 0 else 0.0))

    def load_at(self, day: float, rng: np.random.Generator | None = None) -> EffusionLoad | None:
        """The :class:`EffusionLoad` on ``day``; ``None`` once clear."""
        state = self.state_at(day)
        if state is MeeState.CLEAR:
            return None
        return EffusionLoad(STATE_FLUIDS[state], self.fill_fraction_at(day, rng))

    @property
    def recovery_day(self) -> int:
        """First day on which the ear is clear."""
        return self.stage_boundaries[2]
