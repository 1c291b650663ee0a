"""Structured outcome of a signal-quality assessment."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Verdict", "ReasonCode", "QualityReport"]


class Verdict(Enum):
    """Gate decision for one recording.

    - ``ACCEPT`` — clean capture, process normally;
    - ``DEGRADE`` — processable, but some quality metric is in the
      marginal band; the report's reason codes say which;
    - ``REJECT`` — do not run the DSP; quarantine with reason codes and
      prompt a re-measurement.
    """

    ACCEPT = "accept"
    DEGRADE = "degrade"
    REJECT = "reject"


class ReasonCode(Enum):
    """Machine-readable causes attached to degrade/reject verdicts."""

    #: NaN/Inf samples present (corrupted file, glitching driver).
    NON_FINITE = "non_finite"
    #: The waveform is empty or identically zero.
    NO_SIGNAL = "no_signal"
    #: Too many samples pinned at the amplitude rails (ADC saturation).
    CLIPPING = "clipping"
    #: Zero-run bursts indicating delivery dropouts.
    DROPOUT = "dropout"
    #: In-band spectral SNR below threshold (loud room, leaking seal).
    LOW_SNR = "low_snr"
    #: Matched-filter chirp signature weak or absent.
    WEAK_CHIRP = "weak_chirp"
    #: Capture shorter than the expected session duration.
    TRUNCATED = "truncated"
    #: Multipath/reverberation dominates the capture: in-band energy is
    #: present but temporally smeared across the inter-chirp gap.  As a
    #: degrade reason the smear is recoverable (the rake stage can
    #: separate it); as a reject reason the capture is diffuse beyond
    #: recovery — no chirp peak survives to anchor segmentation.
    ECHO_DOMINANT = "echo_dominant"


@dataclass(frozen=True)
class QualityReport:
    """Quality metrics plus the gate verdict for one recording.

    Attributes
    ----------
    verdict:
        Accept / degrade / reject decision.
    reasons:
        Reason codes that triggered the verdict (empty on ACCEPT).
    chirp_presence:
        Matched-filter peak-to-background ratio; > ~10 for a capture
        that actually contains the probe chirp train.
    snr_db:
        In-band (chirp sweep band) versus out-of-band spectral power
        ratio in dB.
    clipping_ratio:
        Fraction of samples within the clip detection band of the peak.
    dropout_fraction:
        Fraction of samples inside qualifying zero runs.
    dropout_map:
        ``(start, end)`` sample spans of each detected zero run.
    nonfinite_fraction:
        Fraction of NaN/Inf samples.
    duration_ratio:
        Actual over expected duration (1.0 when no expectation given).
    echo_spread:
        Fraction of matched-filter envelope energy falling *outside*
        the chirp-length window around each interval's correlation
        peak.  ~0.35 for clean captures (noise floor plus eardrum
        echo), rising toward ~0.7 as multipath smears chirp energy
        across the inter-chirp gap.
    """

    verdict: Verdict
    reasons: tuple[ReasonCode, ...]
    chirp_presence: float
    snr_db: float
    clipping_ratio: float
    dropout_fraction: float
    dropout_map: tuple[tuple[int, int], ...]
    nonfinite_fraction: float
    duration_ratio: float = 1.0
    echo_spread: float = 0.0

    @property
    def accepted(self) -> bool:
        """True when the capture passed cleanly."""
        return self.verdict is Verdict.ACCEPT

    @property
    def rejected(self) -> bool:
        """True when the capture must not be processed."""
        return self.verdict is Verdict.REJECT

    @property
    def reason_string(self) -> str:
        """Reason codes joined for messages, e.g. ``"clipping; dropout"``."""
        return "; ".join(code.value for code in self.reasons)

    def summary(self) -> dict:
        """JSON-serializable digest (artifacts, metrics exports)."""
        return {
            "verdict": self.verdict.value,
            "reasons": [code.value for code in self.reasons],
            "chirp_presence": self.chirp_presence,
            "snr_db": self.snr_db,
            "clipping_ratio": self.clipping_ratio,
            "dropout_fraction": self.dropout_fraction,
            "num_dropouts": len(self.dropout_map),
            "nonfinite_fraction": self.nonfinite_fraction,
            "duration_ratio": self.duration_ratio,
            "echo_spread": self.echo_spread,
        }
