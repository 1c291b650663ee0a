"""Per-device calibration state with longitudinal drift.

Consumer earphones leave the factory near their nominal response and
then wander: transducer suspensions age, mesh screens clog, connectors
oxidize.  A fleet of uncalibrated devices therefore adds a slowly
drifting, device-specific gain and spectral-tilt error on top of the
static coloration :class:`~repro.simulation.earphone.EarphoneModel`
already models — exactly the deployment reality EasyEyes and Xu &
Kollmeier calibrate against (PAPERS.md).

The model here is a seeded random walk per *unit* (not per model —
two units of one SKU drift independently):

- ``gain_db`` — broadband sensitivity offset;
- ``tilt_db`` — linear spectral tilt across the probe band, the
  first-order shape error of an aging transducer.

Both walk with per-session normal increments scaled so the RMS offset
reaches the configured drift magnitude after ``horizon_sessions``
sessions, and both are clamped to three times that magnitude (a device
four sigma out of spec would fail basic playback, not screening).

Determinism: the walk of ``(unit, session)`` is a pure function of the
config seed, the device's ``ripple_seed``, and the unit id — no call
ordering, no shared state, no ambient RNG.  A disabled config returns
the identity state and :func:`apply_calibration` passes the waveform
through untouched, preserving the repo's bit-identity contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..signal.chirp import ChirpDesign
from .earphone import PROTOTYPE, EarphoneModel

__all__ = [
    "CalibrationDriftConfig",
    "DeviceProfile",
    "CalibrationState",
    "calibration_state",
    "apply_calibration",
]

#: Hard clamp on the drift walk, in multiples of the configured RMS
#: drift magnitude: beyond this a device is broken, not miscalibrated.
DRIFT_CLAMP_SIGMA = 3.0

#: Spectral-tilt shape saturation: the tilt is linear in normalized
#: band offset and flattens outside this many half-bandwidths from the
#: chirp centre, so out-of-band bins are colored but never explode.
TILT_SHAPE_CLIP = 1.5


@dataclass(frozen=True)
class CalibrationDriftConfig:
    """Longitudinal calibration drift of an earphone fleet.

    Attributes
    ----------
    enabled:
        Master switch; False (the default) yields identity states and
        zero-cost application, bit-identical to the pre-drift seed.
    gain_drift_db:
        RMS broadband gain offset after ``horizon_sessions`` sessions.
    tilt_drift_db:
        RMS band-edge tilt after ``horizon_sessions`` sessions: a state
        with ``tilt_db = t`` boosts one edge of the chirp band by ``t``
        dB and cuts the other edge by ``t`` dB.
    horizon_sessions:
        Session count at which the walk's RMS reaches the configured
        drift magnitudes.
    seed:
        Fleet-level seed mixed with each unit's identity.
    """

    enabled: bool = False
    gain_drift_db: float = 2.5
    tilt_drift_db: float = 3.0
    horizon_sessions: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gain_drift_db < 0.0:
            raise ConfigurationError(
                f"gain_drift_db must be >= 0, got {self.gain_drift_db}"
            )
        if self.tilt_drift_db < 0.0:
            raise ConfigurationError(
                f"tilt_drift_db must be >= 0, got {self.tilt_drift_db}"
            )
        if self.horizon_sessions < 1:
            raise ConfigurationError(
                f"horizon_sessions must be >= 1, got {self.horizon_sessions}"
            )


@dataclass(frozen=True)
class DeviceProfile:
    """One physical unit of an earphone model.

    The :class:`EarphoneModel` is the SKU (shared ripple signature);
    the ``unit_id`` distinguishes physical units so each drifts along
    its own seeded walk.
    """

    model: EarphoneModel = PROTOTYPE
    unit_id: int = 0

    def __post_init__(self) -> None:
        if self.unit_id < 0:
            raise ConfigurationError(f"unit_id must be >= 0, got {self.unit_id}")

    @property
    def seed_material(self) -> tuple[int, int]:
        """Deterministic per-unit entropy: (SKU ripple seed, unit id)."""
        return (self.model.ripple_seed, self.unit_id)


@dataclass(frozen=True)
class CalibrationState:
    """Calibration error of one unit at one session."""

    gain_db: float = 0.0
    tilt_db: float = 0.0
    session_index: int = 0

    @property
    def is_identity(self) -> bool:
        """True when applying this state is a no-op."""
        return self.gain_db == 0.0 and self.tilt_db == 0.0

    def response(self, frequencies_hz: np.ndarray, chirp: ChirpDesign) -> np.ndarray:
        """Linear amplitude response of the miscalibration.

        The tilt is linear in the normalized offset from the chirp
        centre (±1 at the band edges) and saturates
        :data:`TILT_SHAPE_CLIP` half-bandwidths out, so the correction
        problem downstream is exactly a two-parameter dB-linear fit.
        """
        freqs = np.asarray(frequencies_hz, dtype=float)
        half_band = chirp.bandwidth / 2.0
        shape = np.clip(
            (freqs - chirp.center_frequency) / half_band,
            -TILT_SHAPE_CLIP,
            TILT_SHAPE_CLIP,
        )
        return 10.0 ** ((self.gain_db + self.tilt_db * shape) / 20.0)


def calibration_state(
    profile: DeviceProfile,
    config: CalibrationDriftConfig,
    session_index: int,
) -> CalibrationState:
    """The unit's calibration error at ``session_index`` (0 = factory fresh).

    A pure function: the whole walk up to the session is regenerated
    from the seeds, so states can be queried in any order — and out-of-
    order longitudinal studies (retries, backfills) see consistent
    histories.
    """
    if session_index < 0:
        raise ConfigurationError(
            f"session_index must be >= 0, got {session_index}"
        )
    if not config.enabled or session_index == 0:
        return CalibrationState(session_index=session_index)
    rng = np.random.default_rng((config.seed, *profile.seed_material))
    steps = rng.normal(size=(session_index, 2))
    per_session = 1.0 / np.sqrt(float(config.horizon_sessions))
    gain = float(steps[:, 0].sum()) * config.gain_drift_db * per_session
    tilt = float(steps[:, 1].sum()) * config.tilt_drift_db * per_session
    gain_cap = DRIFT_CLAMP_SIGMA * config.gain_drift_db
    tilt_cap = DRIFT_CLAMP_SIGMA * config.tilt_drift_db
    return CalibrationState(
        gain_db=float(np.clip(gain, -gain_cap, gain_cap)),
        tilt_db=float(np.clip(tilt, -tilt_cap, tilt_cap)),
        session_index=session_index,
    )


def apply_calibration(
    waveform: np.ndarray,
    state: CalibrationState,
    sample_rate: float,
    chirp: ChirpDesign,
) -> np.ndarray:
    """Colour ``waveform`` with the unit's miscalibration response.

    One FFT round trip, mirroring the device-coloration stage.  An
    identity state returns the input array object unchanged, so the
    disabled path is bit-identical *and* allocation-free.
    """
    if state.is_identity:
        return waveform
    waveform = np.asarray(waveform, dtype=float)
    if waveform.size == 0:
        return waveform
    nfft = 1 << (max(waveform.size, 2) - 1).bit_length()
    freqs = np.fft.rfftfreq(nfft, d=1.0 / sample_rate)
    spectrum = np.fft.rfft(waveform, nfft)
    coloured = np.fft.irfft(spectrum * state.response(freqs, chirp), nfft)
    return coloured[: waveform.size]
