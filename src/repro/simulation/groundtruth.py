"""Imperfect clinical ground truth: otoscope labelling noise.

The paper's reference labels come from pneumatic otoscopy performed by
clinicians (Sec. VI-A).  Otoscopy is itself imperfect — published
sensitivity/specificity against myringotomy findings sit around 90 %,
and distinguishing effusion *types* through the drum is harder still.
A reproduction that treats the simulator's hidden state as ground
truth therefore overstates label quality; this module provides the
missing piece: a confusable-grade labelling model so experiments can
measure how EarSonar's reported accuracy responds to realistic
annotation noise.

The noise model is ordinal: a grade is only ever confused with an
adjacent grade (an otoscopist does not mistake a purulent ear for a
clear one), with separate rates for the fluid/no-fluid boundary and
for the fluid-type boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .effusion import MeeState

__all__ = ["OtoscopistModel", "relabel_states"]


@dataclass(frozen=True)
class OtoscopistModel:
    """Per-boundary confusion rates of the labelling clinician.

    Attributes
    ----------
    presence_error:
        Probability that a clear ear is graded serous or a serous ear
        graded clear (the fluid/no-fluid call; otoscopy is good at
        this, so the default is low).
    type_error:
        Probability that a fluid-positive ear is graded as the adjacent
        fluid type (serous<->mucoid, mucoid<->purulent; judging fluid
        character through the drum is harder).
    """

    presence_error: float = 0.03
    type_error: float = 0.08

    def __post_init__(self) -> None:
        if not 0.0 <= self.presence_error <= 0.5:
            raise ConfigurationError(
                f"presence_error must be in [0, 0.5], got {self.presence_error}"
            )
        if not 0.0 <= self.type_error <= 0.5:
            raise ConfigurationError(
                f"type_error must be in [0, 0.5], got {self.type_error}"
            )

    def observe(self, true_state: MeeState, rng: np.random.Generator) -> MeeState:
        """One otoscopic grading of an ear in ``true_state``."""
        order = MeeState.ordered()
        idx = order.index(true_state)
        neighbours: list[tuple[int, float]] = []
        if idx > 0:
            rate = self.presence_error if idx == 1 else self.type_error
            neighbours.append((idx - 1, rate))
        if idx < len(order) - 1:
            rate = self.presence_error if idx == 0 else self.type_error
            neighbours.append((idx + 1, rate))
        draw = rng.random()
        cumulative = 0.0
        for neighbour_idx, rate in neighbours:
            cumulative += rate
            if draw < cumulative:
                return order[neighbour_idx]
        return true_state


def relabel_states(
    states: list[MeeState],
    rng: np.random.Generator,
    model: OtoscopistModel | None = None,
) -> list[MeeState]:
    """Replace true states with one otoscopist's noisy gradings."""
    model = model or OtoscopistModel()
    return [model.observe(s, rng) for s in states]
