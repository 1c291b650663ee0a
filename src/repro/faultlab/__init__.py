"""Acquisition-fault laboratory: seeded models of capture failure.

Home screening is hostile territory for a precision acoustic
measurement: earbuds half-out of small ears, clipping microphones,
Bluetooth stacks dropping buffers, recordings cut short by a bored
child.  This package models those failure modes as small, frozen,
config-fingerprintable dataclasses with a uniform
``apply(waveform, sample_rate, rng)`` contract, so robustness studies
can inject *controlled, seeded, reproducible* damage into synthesized
waveforms and sweep its severity deterministically.

Every model obeys three invariants:

- **Determinism** — all randomness flows from the caller's
  ``np.random.Generator``; identical seeds give identical damage.
- **Fingerprintability** — models are frozen dataclasses of plain
  numeric fields, so :func:`repro.core.config.config_fingerprint`
  digests them and cached/archived study artifacts can name exactly
  which fault produced them.
- **Severity scaling** — ``model.at_severity(s)`` interpolates from a
  no-op (``s = 0``) through the model's own parameters (``s = 1``) and
  beyond, giving every robustness curve a common x-axis.

Quick use::

    from repro.faultlab import fault_catalog

    rng = np.random.default_rng(7)
    for name, model in fault_catalog(severity=0.5).items():
        damaged = model.apply(recording.waveform, recording.sample_rate, rng)
"""

from .models import (
    CalibrationDriftFault,
    Clipping,
    DCClockDrift,
    DropoutBursts,
    FaultModel,
    NonFiniteCorruption,
    ReverbTailFault,
    SealLeak,
    TransientBursts,
    Truncation,
    apply_to_recording,
    fault_catalog,
)

__all__ = [
    "FaultModel",
    "DropoutBursts",
    "Clipping",
    "TransientBursts",
    "SealLeak",
    "DCClockDrift",
    "Truncation",
    "NonFiniteCorruption",
    "ReverbTailFault",
    "CalibrationDriftFault",
    "fault_catalog",
    "apply_to_recording",
]
