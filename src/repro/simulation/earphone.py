"""Parametric earphone device models.

The paper's prototype is a COTS in-ear earphone with an extra low-cost
microphone (mic SNR > 70 dB, response covering 20 Hz-20 kHz); the
device study (Fig. 15a) additionally tests four commercial earphones.
Device identity manifests acoustically as (a) a smooth ripple on the
speaker+mic transfer function across the probe band, (b) the microphone
noise floor, and (c) overall sensitivity — which is exactly what these
models expose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "EarphoneModel",
    "PROTOTYPE",
    "CK35051",
    "ATH_CKS550XIS",
    "IE100PRO",
    "BOSE_QC20",
    "COMMERCIAL_EARPHONES",
]


@dataclass(frozen=True)
class EarphoneModel:
    """A speaker+microphone pair with a smooth transfer-function ripple.

    Attributes
    ----------
    name:
        Device label.
    sensitivity:
        Broadband amplitude gain of the speaker->mic chain.
    ripple_db:
        Peak-to-peak magnitude ripple across the probe band, in dB.
        Cheaper transducers ripple more.
    ripple_period_hz:
        Characteristic period of the ripple in Hz.
    mic_snr_db:
        Microphone signal-to-noise ratio; sets the self-noise floor
        relative to a full-scale signal.
    ripple_seed:
        Deterministic seed for the device's ripple phases, so a given
        model always sounds like itself.
    """

    name: str
    sensitivity: float = 1.0
    ripple_db: float = 1.5
    ripple_period_hz: float = 2_300.0
    mic_snr_db: float = 70.0
    ripple_seed: int = 0

    def __post_init__(self) -> None:
        if self.sensitivity <= 0:
            raise ConfigurationError(f"sensitivity must be positive, got {self.sensitivity}")
        if self.ripple_db < 0:
            raise ConfigurationError(f"ripple_db must be >= 0, got {self.ripple_db}")
        if self.ripple_period_hz <= 0:
            raise ConfigurationError("ripple_period_hz must be positive")
        if self.mic_snr_db <= 0:
            raise ConfigurationError(f"mic_snr_db must be positive, got {self.mic_snr_db}")

    def transfer(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Amplitude response of the device at the given frequencies.

        The ripple is a sum of three incommensurate sinusoids with
        device-specific phases — smooth, deterministic, and free of
        sharp features that could mimic the effusion dip.
        """
        freqs = np.asarray(frequencies_hz, dtype=float)
        rng = np.random.default_rng(self.ripple_seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        weights = np.array([1.0, 0.6, 0.35])
        ripple = np.zeros_like(freqs)
        for k, (w, phi) in enumerate(zip(weights, phases), start=1):
            ripple += w * np.sin(2.0 * np.pi * freqs / (self.ripple_period_hz * k) + phi)
        ripple /= weights.sum()
        half_db = self.ripple_db / 2.0
        return self.sensitivity * 10.0 ** (half_db * ripple / 20.0)

    def mic_noise_sigma(self, signal_rms: float) -> float:
        """Standard deviation of the mic self-noise for a given signal RMS."""
        return signal_rms * 10.0 ** (-self.mic_snr_db / 20.0)


#: The paper's modified prototype: high-SNR embedded mic, flat response.
PROTOTYPE = EarphoneModel(
    "prototype", sensitivity=1.0, ripple_db=1.0, ripple_period_hz=2600.0,
    mic_snr_db=74.0, ripple_seed=11,
)

#: Budget wired earbud.
CK35051 = EarphoneModel(
    "CK35051", sensitivity=0.9, ripple_db=3.2, ripple_period_hz=1900.0,
    mic_snr_db=64.0, ripple_seed=23,
)

#: Audio-Technica consumer in-ear.
ATH_CKS550XIS = EarphoneModel(
    "ATH-CKS550XIS", sensitivity=1.05, ripple_db=2.2, ripple_period_hz=2100.0,
    mic_snr_db=68.0, ripple_seed=37,
)

#: Sennheiser stage monitor: flattest of the commercial set.
IE100PRO = EarphoneModel(
    "IE 100 PRO", sensitivity=1.0, ripple_db=1.4, ripple_period_hz=2500.0,
    mic_snr_db=71.0, ripple_seed=41,
)

#: Bose QC20: good transducer, slightly stronger processing coloration.
BOSE_QC20 = EarphoneModel(
    "BOSE QC20", sensitivity=0.97, ripple_db=1.8, ripple_period_hz=2300.0,
    mic_snr_db=69.0, ripple_seed=53,
)

#: The four commercial devices of Fig. 15(a), in the paper's order.
COMMERCIAL_EARPHONES = (CK35051, ATH_CKS550XIS, IE100PRO, BOSE_QC20)
