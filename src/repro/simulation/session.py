"""Virtual recording sessions: the simulator's top-level entry point.

One session mirrors the paper's data-collection protocol (Sec. V-VI):
the child wears the earbud (possibly at an angle, possibly moving), the
speaker plays the 16-20 kHz FMCW chirp train for a fixed duration, and
the embedded microphone records the superposition of the direct pulse,
canal multipath, the eardrum echo, device coloration, self-noise,
ambient room noise, and motion artifacts.

The produced :class:`Recording` carries the ground-truth effusion state
so downstream evaluation can score the pipeline without any real
clinical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..acoustics.ear import InsertionState, build_ear_channel
from ..acoustics.reverb import ReverbConfig
from ..errors import ConfigurationError
from ..signal.chirp import ChirpDesign
from .calibration import (
    CalibrationDriftConfig,
    DeviceProfile,
    apply_calibration,
    calibration_state,
)
from .earphone import PROTOTYPE, EarphoneModel
from .effusion import MeeState
from .motion import MOVEMENT_PROFILES, Movement, motion_artifact
from .noise import QUIET_ROOM_SPL_DB, ambient_noise
from .participant import Participant

__all__ = ["SessionConfig", "Recording", "record_session"]


@dataclass(frozen=True)
class SessionConfig:
    """Controlled variables of one recording session.

    Defaults reproduce the paper's standard condition: quiet room
    (20-30 dB), sitting child, 0-degree wearing angle, prototype
    earphone.  ``duration_s`` defaults to 1 s rather than the paper's
    10 s purely for compute economy — the pipeline averages over chirps
    either way, and the value is configurable.
    """

    chirp: ChirpDesign = field(default_factory=ChirpDesign)
    duration_s: float = 1.0
    noise_spl_db: float = QUIET_ROOM_SPL_DB
    movement: Movement = Movement.SIT
    angle_deg: float = 0.0
    earphone: EarphoneModel = PROTOTYPE
    insertion_depth_m: float = 0.004
    #: Per-chirp RMS jitter of the in-canal echo delays, in seconds.
    #: Models involuntary micro-movements (breathing, jaw, pulse) that
    #: shift the earbud-tissue coupling by fractions of a millimetre
    #: between chirps; chirp-averaged spectra therefore measure the
    #: incoherent echo magnitude rather than one frozen interference
    #: pattern — matching the stable averaged spectra of Fig. 9.
    path_jitter_s: float = 2.0e-6
    #: Early-reflection model of the canal; disabled by default, in
    #: which case the channel (and the whole RNG stream) is exactly the
    #: anechoic seed behaviour.
    reverb: ReverbConfig = field(default_factory=ReverbConfig)
    #: Longitudinal device-calibration drift; disabled by default, in
    #: which case the capture is bit-identical to the pre-drift seed.
    calibration: CalibrationDriftConfig = field(default_factory=CalibrationDriftConfig)
    #: Which physical unit of ``earphone`` records this session; only
    #: meaningful when ``calibration`` is enabled (each unit drifts
    #: along its own seeded walk).
    device_unit: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigurationError(
                f"duration_s must be positive and finite, got {self.duration_s}"
            )
        if self.duration_s < 2 * self.chirp.interval:
            raise ConfigurationError(
                "duration_s must cover at least two chirp intervals"
            )
        if not 0.0 <= self.angle_deg <= 60.0:
            raise ConfigurationError(f"angle_deg must be in [0, 60], got {self.angle_deg}")
        if not (math.isfinite(self.path_jitter_s) and self.path_jitter_s >= 0):
            raise ConfigurationError(
                f"path_jitter_s must be finite and >= 0, got {self.path_jitter_s}"
            )
        if self.device_unit < 0:
            raise ConfigurationError(
                f"device_unit must be >= 0, got {self.device_unit}"
            )

    @property
    def num_chirps(self) -> int:
        """How many chirps fit in the session duration."""
        return max(2, int(self.duration_s / self.chirp.interval))


@dataclass(frozen=True)
class Recording:
    """One microphone capture plus its ground truth and provenance.

    ``fill_fraction`` is the simulator's continuous ground truth (the
    fraction of the middle-ear cavity filled when the capture was
    taken); real deployments would obtain it from quantitative
    tympanometry, if at all.
    """

    waveform: np.ndarray
    sample_rate: float
    participant_id: str
    day: float
    state: MeeState
    config: SessionConfig
    fill_fraction: float = 0.0

    @property
    def duration_s(self) -> float:
        """Actual capture length in seconds."""
        return self.waveform.size / self.sample_rate

    @property
    def label(self) -> str:
        """Ground-truth state name, convenient for reporting."""
        return self.state.value


def _synthesize_train(
    channel, config: SessionConfig, rng: np.random.Generator
) -> np.ndarray:
    """Render the chirp train through the channel in one batched pass.

    Each chirp experiences the participant's channel with its echo
    delays rigidly shifted by that chirp's micro-movement jitter (the
    direct transducer path does not move relative to the mic, so it is
    left unjittered).  Executes on
    :func:`repro.kernels.session.synthesize_train`, which folds the
    per-chirp perturbations into one ``(num_chirps, num_freqs)``
    transfer matrix and a single 2-D inverse FFT; the retired per-chirp
    loop survives as :func:`_synthesize_train_reference` and the golden
    suite holds the two equal (bit-identical in the common case).
    """
    from ..kernels.session import synthesize_train

    return synthesize_train(
        channel, config.chirp, config.num_chirps, config.path_jitter_s, rng
    )


def _synthesize_train_reference(
    channel, config: SessionConfig, rng: np.random.Generator
) -> np.ndarray:
    """Serial chirp-by-chirp synthesis: the correctness oracle.

    Renders every chirp with its own jittered channel rebuild and FFT
    round trip, exactly as the pre-kernel simulator did.  Consumes the
    ``rng`` stream in the same order as the batched kernel, so the two
    are interchangeable under a fixed seed.
    """
    from ..acoustics.propagation import MultipathChannel, PropagationPath
    from ..signal.chirp import linear_chirp

    fs = config.chirp.sample_rate
    pulse = linear_chirp(config.chirp)
    hop = config.chirp.samples_per_interval
    total = config.num_chirps * hop
    out = np.zeros(total + hop)
    # Per-chirp echo phases follow the paper's incoherent-sum signal
    # model (Eq. (5)): tissue reflections carry no stable carrier
    # phase.  The phases are drawn as a low-discrepancy (golden-ratio
    # stratified) sequence with a random per-recording offset, so that
    # a short simulated recording reproduces the chirp-ensemble
    # statistics of the paper's 10-second captures instead of paying
    # Monte-Carlo noise proportional to 1/sqrt(num_chirps).
    strides = (0.6180339887498949, 0.41421356237309515, 0.7320508075688772, 0.23606797749978969)
    offsets = rng.uniform(0.0, 1.0, size=len(channel.paths))
    for k in range(config.num_chirps):
        paths = []
        for j, p in enumerate(channel.paths):
            if p.label == "direct":
                paths.append(p)
                continue
            jitter = (
                rng.normal(0.0, config.path_jitter_s) if config.path_jitter_s > 0 else 0.0
            )
            fraction = (k * strides[j % len(strides)] + offsets[j]) % 1.0
            paths.append(
                PropagationPath(
                    delay_s=max(0.0, p.delay_s + jitter),
                    gain=p.gain,
                    response=p.response,
                    phase=float(2.0 * np.pi * fraction),
                    label=p.label,
                )
            )
        echoed = MultipathChannel(paths).apply(pulse, fs)
        start = k * hop
        stop = min(start + echoed.size, out.size)
        out[start:stop] += echoed[: stop - start]
    return out[:total]


def _apply_device(waveform: np.ndarray, earphone: EarphoneModel, sample_rate: float) -> np.ndarray:
    """Colour ``waveform`` with the device's transfer function.

    The transfer curve on the session's FFT grid comes from the kernel
    plan cache, so repeated sessions of one device pay for it once per
    process; the FFT round trip itself is unchanged.
    """
    from ..kernels.session import apply_device_planned

    return apply_device_planned(waveform, earphone, sample_rate)


def _apply_device_reference(
    waveform: np.ndarray, earphone: EarphoneModel, sample_rate: float
) -> np.ndarray:
    """Plan-free device coloration: the correctness oracle."""
    nfft = 1 << (max(waveform.size, 2) - 1).bit_length()
    freqs = np.fft.rfftfreq(nfft, d=1.0 / sample_rate)
    spectrum = np.fft.rfft(waveform, nfft)
    coloured = np.fft.irfft(spectrum * earphone.transfer(freqs), nfft)
    return coloured[: waveform.size]


def record_session(
    participant: Participant,
    day: float,
    config: SessionConfig,
    rng: np.random.Generator,
) -> Recording:
    """Simulate one recording session and return the capture.

    The wearing angle of the session is the configured angle plus the
    movement profile's jitter; the seal degrades accordingly.  All
    stochastic choices flow from ``rng`` so studies are reproducible.
    """
    fs = config.chirp.sample_rate
    profile = MOVEMENT_PROFILES[config.movement]
    angle = min(config.angle_deg + profile.sample_angle_jitter(rng), 89.0)
    seal = max(0.05, 1.0 - profile.seal_degradation - abs(rng.normal(0.0, 0.01)))
    insertion = InsertionState(
        depth_m=config.insertion_depth_m,
        angle_deg=angle,
        seal_quality=seal,
    )
    load = participant.load_on(day, rng)
    channel = build_ear_channel(
        participant.geometry,
        participant.drum_model,
        load,
        insertion,
        reverb=config.reverb,
    )

    rx = _synthesize_train(channel, config, rng)
    rx = _apply_device(rx, config.earphone, fs)
    if config.calibration.enabled:
        # The drift walk advances per study day: the fleet miscalibrates
        # over the longitudinal protocol, not within one capture.
        state = calibration_state(
            DeviceProfile(model=config.earphone, unit_id=config.device_unit),
            config.calibration,
            int(day),
        )
        rx = apply_calibration(rx, state, fs, config.chirp)

    target_len = int(round(config.duration_s * fs))
    if rx.size < target_len:
        rx = np.concatenate([rx, np.zeros(target_len - rx.size)])
    rx = rx[:target_len]

    signal_rms = float(np.sqrt(np.mean(rx**2)))
    mic_sigma = config.earphone.mic_noise_sigma(max(signal_rms, 1e-6))
    rx = rx + rng.normal(0.0, mic_sigma, size=rx.size)
    rx = rx + ambient_noise(rx.size, fs, config.noise_spl_db, rng, seal_quality=seal)
    rx = rx + motion_artifact(profile, rx.size, fs, rng)

    return Recording(
        waveform=rx,
        sample_rate=fs,
        participant_id=participant.participant_id,
        day=day,
        state=participant.state_on(day),
        config=config,
        fill_fraction=load.fill_fraction if load is not None else 0.0,
    )
