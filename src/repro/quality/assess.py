"""Waveform-level quality metrics and the gate decision logic.

All metrics are deterministic pure functions of the waveform and the
probe :class:`~repro.signal.chirp.ChirpDesign`; no RNG, no clocks, and
the only DSP is one matched filter (plan-cached template) plus one
FFT, so gating a recording costs a small fraction of the pipeline it
protects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError
from ..signal.chirp import ChirpDesign
from .report import QualityReport, ReasonCode, Verdict

if TYPE_CHECKING:  # circular-import-free annotation only
    from ..simulation.session import Recording

__all__ = ["QualityConfig", "assess_waveform", "assess_recording"]


@dataclass(frozen=True)
class QualityConfig:
    """Thresholds for the accept / degrade / reject decision.

    Each metric has a *degrade* and a *reject* bound; crossing the
    first tags the report, crossing the second rejects the capture.
    Defaults are calibrated against the simulator's clean captures
    (which must ACCEPT) and :mod:`repro.faultlab` at default severity.
    """

    #: Samples with ``|x| >= clip_band * peak`` count as railed.
    clip_band: float = 0.995
    degrade_clipping_ratio: float = 0.01
    reject_clipping_ratio: float = 0.2
    #: Zero runs at least this long (ms) count as dropouts.
    dropout_min_ms: float = 0.5
    degrade_dropout_fraction: float = 0.004
    reject_dropout_fraction: float = 0.3
    degrade_snr_db: float = 6.0
    reject_snr_db: float = -3.0
    #: Matched-filter peak-to-background ratio thresholds.
    degrade_chirp_presence: float = 8.0
    reject_chirp_presence: float = 2.5
    #: Actual/expected duration thresholds (only with a known target).
    degrade_duration_ratio: float = 0.9
    reject_duration_ratio: float = 0.2
    #: Above this NaN/Inf fraction the capture is beyond salvage.
    reject_nonfinite_fraction: float = 0.02
    #: Echo-spread thresholds (fraction of matched-filter energy
    #: outside the per-interval peak window; see ``_echo_spread``).
    #: Clean captures sit near 0.35, dense multipath at 0.55-0.7.
    #: Both only apply when the in-band SNR clears ``degrade_snr_db``,
    #: so a quiet or noisy capture is never mislabelled echo-dominant.
    degrade_echo_spread: float = 0.5
    reject_echo_spread: float = 0.65

    def __post_init__(self) -> None:
        # A NaN threshold fails every comparison, so its check silently
        # never fires; an infinite one switches its check off on purpose.
        for field in fields(self):
            if math.isnan(getattr(self, field.name)):
                raise ConfigurationError(f"{field.name} must not be NaN")
        if not 0.0 < self.clip_band <= 1.0:
            raise ConfigurationError(f"clip_band must be in (0, 1], got {self.clip_band}")
        if not (math.isfinite(self.dropout_min_ms) and self.dropout_min_ms > 0):
            raise ConfigurationError(
                f"dropout_min_ms must be positive and finite, got {self.dropout_min_ms}"
            )
        pairs = [
            (self.degrade_clipping_ratio, self.reject_clipping_ratio),
            (self.degrade_dropout_fraction, self.reject_dropout_fraction),
            (self.reject_snr_db, self.degrade_snr_db),
            (self.reject_chirp_presence, self.degrade_chirp_presence),
            (self.reject_duration_ratio, self.degrade_duration_ratio),
            (self.degrade_echo_spread, self.reject_echo_spread),
        ]
        for lo, hi in pairs:
            if lo > hi:
                raise ConfigurationError(
                    "degrade/reject thresholds are ordered inconsistently"
                )


def _zero_runs(waveform: np.ndarray, min_length: int) -> tuple[tuple[int, int], ...]:
    """``(start, end)`` spans of exact-zero runs of at least ``min_length``."""
    zero = waveform == 0.0
    if not zero.any():
        return ()
    edges = np.diff(zero.astype(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1) + 1
    if zero[0]:
        starts = np.concatenate([[0], starts])
    if zero[-1]:
        ends = np.concatenate([ends, [zero.size]])
    spans = [
        (int(s), int(e)) for s, e in zip(starts, ends) if e - s >= min_length
    ]
    return tuple(spans)


def _chirp_presence(envelope: np.ndarray) -> float:
    """Matched-filter peak-to-background ratio of the probe signature.

    A capture containing the chirp train produces one sharp correlation
    peak per interval; the high percentile of the ``envelope`` then
    towers over its median.
    """
    background = float(np.median(envelope))
    peak = float(np.percentile(envelope, 99.5))
    if peak <= 0.0:
        return 0.0
    if background <= 0.0:
        return float(np.inf)
    return peak / background


def _echo_spread(envelope: np.ndarray, chirp: ChirpDesign) -> float:
    """Fraction of matched-filter energy outside the per-interval peak.

    The envelope is cut into chirp-interval frames; within each frame
    the chirp-length window around the correlation peak holds the
    direct arrival plus the eardrum echo (whose round trip is shorter
    than one chirp).  Energy outside that window is either the noise
    floor (small for any capture worth processing) or multipath smear
    filling the inter-chirp gap — so the mean outside-fraction rises
    from ~0.35 on clean captures toward ~0.7 under dense reverberation.
    """
    energy = envelope**2
    hop = chirp.samples_per_interval
    num_frames = energy.size // hop
    if num_frames == 0:
        return 0.0
    frames = energy[: num_frames * hop].reshape(num_frames, hop)
    cumulative = np.concatenate(
        [np.zeros((num_frames, 1)), np.cumsum(frames, axis=1)], axis=1
    )
    peaks = np.argmax(frames, axis=1)
    half = chirp.samples_per_chirp
    lo = np.clip(peaks - half, 0, hop)
    hi = np.clip(peaks + half + 1, 0, hop)
    rows = np.arange(num_frames)
    in_window = cumulative[rows, hi] - cumulative[rows, lo]
    total = cumulative[:, -1]
    usable = total > 0.0
    if not usable.any():
        return 0.0
    return float(1.0 - np.mean(in_window[usable] / total[usable]))


def _inband_snr_db(waveform: np.ndarray, sample_rate: float, chirp: ChirpDesign) -> float:
    """Spectral power in the chirp sweep band vs the out-of-band floor."""
    spectrum = np.abs(np.fft.rfft(waveform)) ** 2
    freqs = np.fft.rfftfreq(waveform.size, d=1.0 / sample_rate)
    in_band = (freqs >= chirp.start_frequency) & (freqs <= chirp.end_frequency)
    out_band = ~in_band
    out_band[0] = False  # DC carries offset, not noise floor
    if not in_band.any() or not out_band.any():
        return 0.0
    signal_power = float(np.mean(spectrum[in_band]))
    noise_power = float(np.mean(spectrum[out_band]))
    if noise_power <= 0.0:
        return float(np.inf) if signal_power > 0.0 else 0.0
    if signal_power <= 0.0:
        return -float(np.inf)
    return 10.0 * float(np.log10(signal_power / noise_power))


def assess_waveform(
    waveform: np.ndarray,
    sample_rate: float,
    chirp: ChirpDesign,
    config: QualityConfig | None = None,
    *,
    expected_duration_s: float | None = None,
) -> QualityReport:
    """Assess one raw waveform and return the gate decision.

    Non-finite samples are zeroed *for metric computation only* (the
    caller's array is untouched), so a partially corrupted capture
    still gets meaningful clipping/SNR/presence numbers alongside its
    ``non_finite`` reason code.
    """
    config = config or QualityConfig()
    waveform = np.asarray(waveform, dtype=float)
    degrade: list[ReasonCode] = []
    reject: list[ReasonCode] = []

    if waveform.size == 0:
        return QualityReport(
            verdict=Verdict.REJECT,
            reasons=(ReasonCode.NO_SIGNAL,),
            chirp_presence=0.0,
            snr_db=0.0,
            clipping_ratio=0.0,
            dropout_fraction=0.0,
            dropout_map=(),
            nonfinite_fraction=0.0,
            duration_ratio=0.0,
        )

    finite = np.isfinite(waveform)
    nonfinite_fraction = 1.0 - float(np.mean(finite))
    if nonfinite_fraction > 0.0:
        target = reject if nonfinite_fraction > config.reject_nonfinite_fraction else degrade
        target.append(ReasonCode.NON_FINITE)
        waveform = np.where(finite, waveform, 0.0)

    peak = float(np.max(np.abs(waveform)))
    min_run = max(1, int(round(config.dropout_min_ms * 1e-3 * sample_rate)))
    dropout_map = _zero_runs(waveform, min_run)
    dropout_fraction = (
        sum(end - start for start, end in dropout_map) / waveform.size
    )

    if peak <= 0.0:
        return QualityReport(
            verdict=Verdict.REJECT,
            reasons=tuple(dict.fromkeys(reject + degrade + [ReasonCode.NO_SIGNAL])),
            chirp_presence=0.0,
            snr_db=0.0,
            clipping_ratio=0.0,
            dropout_fraction=1.0,
            dropout_map=dropout_map,
            nonfinite_fraction=nonfinite_fraction,
            duration_ratio=_duration_ratio(waveform, sample_rate, expected_duration_s),
        )

    clipping_ratio = float(np.mean(np.abs(waveform) >= config.clip_band * peak))
    # One matched filter (plan-cached template, one FFT round trip of
    # the waveform) feeds both the presence and the spread metric.
    from ..kernels.chirp import matched_filter_planned

    envelope = matched_filter_planned(waveform, chirp)
    chirp_presence = _chirp_presence(envelope)
    snr_db = _inband_snr_db(waveform, sample_rate, chirp)
    duration_ratio = _duration_ratio(waveform, sample_rate, expected_duration_s)
    echo_spread = _echo_spread(envelope, chirp)

    def grade(value: float, degrade_at: float, reject_at: float, code: ReasonCode,
              *, low_is_bad: bool) -> None:
        if low_is_bad:
            if value < reject_at:
                reject.append(code)
            elif value < degrade_at:
                degrade.append(code)
        else:
            if value > reject_at:
                reject.append(code)
            elif value > degrade_at:
                degrade.append(code)

    grade(clipping_ratio, config.degrade_clipping_ratio,
          config.reject_clipping_ratio, ReasonCode.CLIPPING, low_is_bad=False)
    grade(dropout_fraction, config.degrade_dropout_fraction,
          config.reject_dropout_fraction, ReasonCode.DROPOUT, low_is_bad=False)
    grade(snr_db, config.degrade_snr_db, config.reject_snr_db,
          ReasonCode.LOW_SNR, low_is_bad=True)
    grade(chirp_presence, config.degrade_chirp_presence,
          config.reject_chirp_presence, ReasonCode.WEAK_CHIRP, low_is_bad=True)
    if expected_duration_s is not None:
        grade(duration_ratio, config.degrade_duration_ratio,
              config.reject_duration_ratio, ReasonCode.TRUNCATED, low_is_bad=True)

    # Multipath post-processing.  Only enter the echo-dominant regime
    # when the band demonstrably carries chirp energy AND that energy is
    # temporally smeared: a reverberant canal raises the in-band SNR (it
    # adds in-band reflections) while collapsing the matched-filter
    # presence ratio (the inter-chirp gap fills, raising the envelope
    # median).  A genuinely weak or noise-buried chirp fails the SNR
    # gate instead, so those verdicts are untouched.
    if snr_db >= config.degrade_snr_db and echo_spread >= config.degrade_echo_spread:
        if ReasonCode.WEAK_CHIRP in reject:
            reject.remove(ReasonCode.WEAK_CHIRP)
            if echo_spread >= config.reject_echo_spread:
                # Diffuse beyond recovery: no peak to anchor the rake.
                reject.append(ReasonCode.ECHO_DOMINANT)
            else:
                # Reverberant but recoverable: process, tagged.
                degrade.append(ReasonCode.WEAK_CHIRP)
        if ReasonCode.ECHO_DOMINANT not in reject:
            degrade.append(ReasonCode.ECHO_DOMINANT)

    if reject:
        verdict = Verdict.REJECT
    elif degrade:
        verdict = Verdict.DEGRADE
    else:
        verdict = Verdict.ACCEPT
    return QualityReport(
        verdict=verdict,
        reasons=tuple(dict.fromkeys(reject + degrade)),
        chirp_presence=chirp_presence,
        snr_db=snr_db,
        clipping_ratio=clipping_ratio,
        dropout_fraction=dropout_fraction,
        dropout_map=dropout_map,
        nonfinite_fraction=nonfinite_fraction,
        duration_ratio=duration_ratio,
        echo_spread=echo_spread,
    )


def _duration_ratio(
    waveform: np.ndarray, sample_rate: float, expected_duration_s: float | None
) -> float:
    if expected_duration_s is None or expected_duration_s <= 0.0:
        return 1.0
    return (waveform.size / sample_rate) / expected_duration_s


def assess_recording(
    recording: "Recording",
    chirp: ChirpDesign,
    config: QualityConfig | None = None,
) -> QualityReport:
    """Assess a :class:`~repro.simulation.session.Recording`.

    The expected duration comes from the recording's own session
    config, so interrupted captures earn a ``truncated`` reason.
    """
    return assess_waveform(
        recording.waveform,
        recording.sample_rate,
        chirp,
        config,
        expected_duration_s=_expected_duration_s(recording),
    )


def _expected_duration_s(recording: "Recording") -> float | None:
    """The duration the gate expects of ``recording``, or ``None``.

    The serving layer keys its memo of gate verdicts on this value, so
    it must read the duration exactly as :func:`assess_recording` does.
    """
    return getattr(getattr(recording, "config", None), "duration_s", None)
