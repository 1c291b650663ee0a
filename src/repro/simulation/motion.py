"""Body-movement artifact models (paper Sec. VI-C3, Fig. 14c-d).

The robustness study prescribes four behaviours — sitting, slight head
movement, walking, and nodding.  Motion enters the recording through
two mechanisms:

* **mechanical artifacts** — cable/contact rumble and footfall thumps,
  additive low-frequency transients at the microphone;
* **coupling jitter** — the earbud shifts in the canal, perturbing the
  wearing angle and seal between (and during) chirps.

Each :class:`MovementProfile` parameterises both; :func:`motion_artifact`
renders the additive component and :meth:`MovementProfile.sample_angle_jitter`
the geometric one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import ConfigurationError
from ..signal.filters import first_order_iir

__all__ = ["Movement", "MovementProfile", "MOVEMENT_PROFILES", "motion_artifact"]


class Movement(Enum):
    """The prescribed behaviours of the robustness study."""

    SIT = "sit"
    HEAD = "head"
    WALKING = "walking"
    NODDING = "nodding"


@dataclass(frozen=True)
class MovementProfile:
    """Artifact intensity parameters for one behaviour.

    Attributes
    ----------
    movement:
        Which behaviour this profile describes.
    rumble_rms:
        RMS of continuous low-frequency rumble (model units).
    bump_rate_hz:
        Expected rate of transient bumps (footfalls, nods).
    bump_amplitude:
        Peak amplitude of each transient.
    angle_jitter_deg:
        Standard deviation of the wearing-angle perturbation.
    seal_degradation:
        Mean reduction of seal quality while moving.
    """

    movement: Movement
    rumble_rms: float
    bump_rate_hz: float
    bump_amplitude: float
    angle_jitter_deg: float
    seal_degradation: float

    def __post_init__(self) -> None:
        for name in ("rumble_rms", "bump_rate_hz", "bump_amplitude", "angle_jitter_deg"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not 0.0 <= self.seal_degradation < 1.0:
            raise ConfigurationError("seal_degradation must be in [0, 1)")

    def sample_angle_jitter(self, rng: np.random.Generator) -> float:
        """Draw a wearing-angle perturbation in degrees (non-negative)."""
        return float(abs(rng.normal(0.0, self.angle_jitter_deg)))


#: Calibrated so sit ~ head << walking ~ nodding, as in Fig. 14(c-d).
MOVEMENT_PROFILES: dict[Movement, MovementProfile] = {
    Movement.SIT: MovementProfile(Movement.SIT, 0.0004, 0.0, 0.0, 0.4, 0.0),
    Movement.HEAD: MovementProfile(Movement.HEAD, 0.001, 0.5, 0.01, 1.2, 0.01),
    Movement.WALKING: MovementProfile(Movement.WALKING, 0.003, 2.5, 0.06, 3.2, 0.05),
    Movement.NODDING: MovementProfile(Movement.NODDING, 0.002, 2.0, 0.07, 3.6, 0.05),
}


def motion_artifact(
    profile: MovementProfile,
    num_samples: int,
    sample_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render the additive motion artifact for one recording.

    Continuous rumble is modelled as heavily smoothed noise (energy
    below ~200 Hz); bumps are exponentially decaying broadband
    transients at Poisson arrival times.  The band-pass filter removes
    most of this, but strong bumps splash energy into the probe band
    and corrupt event detection — exactly the failure mode the paper
    reports for walking/nodding.
    """
    if num_samples <= 0:
        raise ConfigurationError(f"num_samples must be positive, got {num_samples}")
    if sample_rate <= 0:
        raise ConfigurationError(f"sample_rate must be positive, got {sample_rate}")
    artifact = np.zeros(num_samples)
    if profile.rumble_rms > 0:
        raw = rng.standard_normal(num_samples)
        # Single-pole smoothing confines the rumble to low frequencies.
        pole = np.exp(-2.0 * np.pi * 150.0 / sample_rate)
        rumble = first_order_iir(raw, 1.0 - pole, pole)
        rms = np.sqrt(np.mean(rumble**2))
        if rms > 0:
            artifact += profile.rumble_rms / rms * rumble
    if profile.bump_rate_hz > 0 and profile.bump_amplitude > 0:
        duration_s = num_samples / sample_rate
        num_bumps = rng.poisson(profile.bump_rate_hz * duration_s)
        decay = np.exp(-np.arange(int(0.004 * sample_rate)) / (0.001 * sample_rate))
        for _ in range(num_bumps):
            start = int(rng.integers(0, num_samples))
            length = min(decay.size, num_samples - start)
            polarity = 1.0 if rng.random() < 0.5 else -1.0
            burst = rng.standard_normal(length) * decay[:length]
            artifact[start : start + length] += polarity * profile.bump_amplitude * burst
    return artifact
