"""Seeded early-reflection synthesis for reverberant ear canals.

The base channel of :func:`repro.acoustics.ear.build_ear_channel` is an
anechoic ideal: two canal-wall bounces, the drum echo, and one
second-order bounce.  Real canals are rougher — cerumen ridges, canal
bends, and a loosely seated ear tip each scatter part of the probe
chirp back early, producing a comb of weak reflections *between* the
direct pulse and the drum echo.  This module synthesizes that comb as
extra :class:`~repro.acoustics.propagation.PropagationPath` entries so
reverberation composes with the existing notch model (and with the
batched session kernel) instead of replacing it.

Design constraints, in order:

- **Off is off.**  ``ReverbConfig.enabled`` defaults to False and a
  disabled config adds no paths, consumes no RNG, and changes no
  arithmetic — the bit-identity contract of every robustness layer in
  this repo.
- **Fingerprintable.**  ``ReverbConfig`` is a frozen dataclass of plain
  numbers, so :func:`repro.core.config.config_fingerprint` digests it
  and the plan/feature caches key on it.
- **Geometry-derived.**  Tap delays are fractions of the drum
  round-trip computed from the *free* canal length, and tap gains stem
  from the canal's wall reflectivity; the same config produces
  physically consistent reverberation across participants.
- **Seeded dither.**  Within those physical envelopes the exact tap
  placement is drawn from ``default_rng(tap_seed)``, so two canals with
  the same geometry still differ unless configured not to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .propagation import PropagationPath

__all__ = [
    "ReverbConfig",
    "ReflectionTap",
    "reverb_taps",
    "reverb_paths",
]


@dataclass(frozen=True)
class ReverbConfig:
    """Early-reflection model of one ear canal, plus its rake antidote.

    Attributes
    ----------
    enabled:
        Master switch.  False (the default) is the anechoic seed
        behaviour: no paths are added and no RNG is consumed, so
        disabled runs stay bit-identical to the pre-reverb pipeline.
    num_taps:
        Number of early-reflection taps between the direct pulse and
        the drum echo.
    strength:
        Linear gain multiplier on every tap; the severity axis of the
        reverb sweep (0 silences the taps, 1 is the calibrated model,
        2 is a harshly scattering canal).
    tap_decay:
        Geometric per-tap decay of successive reflections, in (0, 1).
    delay_spread:
        Fraction of the drum round-trip the taps span, in (0, 1).  Kept
        below the segmenter's eardrum-distance prior so reflections
        crowd the direct pulse rather than masquerading as the drum.
    tap_seed:
        Seed of the per-config tap dither (delay stratification jitter
        and per-tap gain wobble).
    rake_threshold:
        Analysis side: minimum estimated tap amplitude, relative to the
        direct pulse, for the rake stage to subtract it.  Below this
        the "tap" is indistinguishable from noise and subtracting it
        would inject the estimation error instead.
    """

    enabled: bool = False
    num_taps: int = 4
    strength: float = 1.0
    tap_decay: float = 0.6
    delay_spread: float = 0.55
    tap_seed: int = 0
    rake_threshold: float = 0.12

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise ConfigurationError(f"num_taps must be >= 1, got {self.num_taps}")
        if self.strength < 0.0:
            raise ConfigurationError(f"strength must be >= 0, got {self.strength}")
        if not 0.0 < self.tap_decay < 1.0:
            raise ConfigurationError(
                f"tap_decay must be in (0, 1), got {self.tap_decay}"
            )
        if not 0.0 < self.delay_spread < 1.0:
            raise ConfigurationError(
                f"delay_spread must be in (0, 1), got {self.delay_spread}"
            )
        if self.rake_threshold < 0.0:
            raise ConfigurationError(
                f"rake_threshold must be >= 0, got {self.rake_threshold}"
            )


@dataclass(frozen=True)
class ReflectionTap:
    """One early reflection: a pure delay-and-attenuate copy."""

    delay_s: float
    gain: float

    def __post_init__(self) -> None:
        if self.delay_s < 0.0:
            raise ConfigurationError(f"delay_s must be >= 0, got {self.delay_s}")


def reverb_taps(
    config: ReverbConfig,
    free_length_m: float,
    wall_reflectivity: float,
    *,
    sound_speed: float,
) -> tuple[ReflectionTap, ...]:
    """The early-reflection taps of one canal, deterministically dithered.

    Tap ``k`` sits in the ``k``-th stratum of the interval
    ``(0, delay_spread * round_trip)`` where ``round_trip`` is the drum
    echo's two-way travel time over the free canal; within its stratum
    the exact position is seeded dither.  Gains decay geometrically
    from the wall reflectivity, scaled by ``strength`` and wobbled a
    few percent per tap.  Disabled configs return no taps and draw no
    random numbers.
    """
    if not config.enabled or config.strength == 0.0:
        return ()
    if free_length_m <= 0.0:
        raise ConfigurationError(
            f"free_length_m must be positive, got {free_length_m}"
        )
    round_trip_s = 2.0 * free_length_m / sound_speed
    rng = np.random.default_rng(config.tap_seed)
    position_dither = rng.uniform(0.2, 0.8, size=config.num_taps)
    gain_wobble = rng.uniform(0.85, 1.15, size=config.num_taps)
    taps = []
    for k in range(config.num_taps):
        fraction = (k + position_dither[k]) / config.num_taps
        delay = fraction * config.delay_spread * round_trip_s
        gain = (
            config.strength
            * wall_reflectivity
            * config.tap_decay ** (k + 1)
            * gain_wobble[k]
        )
        taps.append(ReflectionTap(delay_s=float(delay), gain=float(gain)))
    return tuple(taps)


def reverb_paths(
    config: ReverbConfig,
    free_length_m: float,
    wall_reflectivity: float,
    *,
    sound_speed: float,
) -> list[PropagationPath]:
    """The taps as propagation paths ready to extend an ear channel.

    Labels are ``reverb-<k>`` — anything but ``"direct"`` — so the
    session synthesizer treats reflections like tissue echoes: each
    chirp sees them with fresh micro-movement jitter and stratified
    carrier phase, matching the incoherent-sum signal model.
    """
    return [
        PropagationPath(delay_s=tap.delay_s, gain=tap.gain, label=f"reverb-{k}")
        for k, tap in enumerate(
            reverb_taps(
                config, free_length_m, wall_reflectivity, sound_speed=sound_speed
            )
        )
    ]
