"""Assembly of the 105-element MEE feature vector (paper Sec. IV-C2).

For each recording the pipeline averages the TX-deconvolved echo band
spectra over all chirps, producing one *absorption curve* on a uniform
frequency grid, and averages the aligned echo segments in the time
domain.  The feature vector is then:

* 64 normalised absorption-curve bins (the fine-grained "absorbed
  spectrum energy" features),
* 7 curve statistics (mean, std, max, min, skewness, kurtosis,
  centroid),
* 34 MFCC features: 17 cepstral coefficients summarised by their mean
  and standard deviation across analysis frames of the mean echo
  segment,

for a total of 105 elements, matching the paper's vector length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..obs import names as obs_names
from ..obs.tracer import current_tracer
from ..signal.mfcc import MfccConfig, mfcc
from .statistics import curve_statistics

__all__ = ["FeatureVectorConfig", "FeatureVectorBuilder"]


@dataclass(frozen=True)
class FeatureVectorConfig:
    """Shape of the per-recording feature vector.

    Attributes
    ----------
    num_curve_bins:
        Points of the uniform absorption-curve grid (paper band
        16-20 kHz).
    band_low_hz / band_high_hz:
        The probe band the curve covers.
    mfcc:
        MFCC extraction parameters applied to the mean echo segment.
    """

    num_curve_bins: int = 64
    band_low_hz: float = 16_000.0
    band_high_hz: float = 20_000.0
    mfcc: MfccConfig = field(
        default_factory=lambda: MfccConfig(
            sample_rate=384_000.0,
            frame_length=256,
            frame_hop=128,
            nfft=1024,
            num_filters=20,
            num_coefficients=17,
            low_hz=15_000.0,
            high_hz=21_000.0,
        )
    )

    def __post_init__(self) -> None:
        if self.num_curve_bins < 8:
            raise ConfigurationError(
                f"num_curve_bins must be >= 8, got {self.num_curve_bins}"
            )
        if not 0.0 < self.band_low_hz < self.band_high_hz:
            raise ConfigurationError("need 0 < band_low_hz < band_high_hz")

    @property
    def vector_length(self) -> int:
        """Total feature count: curve bins + 7 statistics + 2x MFCC coefficients."""
        return self.num_curve_bins + 7 + 2 * self.mfcc.num_coefficients

    def frequency_grid(self) -> np.ndarray:
        """The uniform band grid the absorption curve lives on."""
        return np.linspace(self.band_low_hz, self.band_high_hz, self.num_curve_bins)


@dataclass
class FeatureVectorBuilder:
    """Builds 105-element vectors from absorption curves and echo segments."""

    config: FeatureVectorConfig = field(default_factory=FeatureVectorConfig)

    def build(self, curve: np.ndarray, mean_segment: np.ndarray, segment_rate: float) -> np.ndarray:
        """Assemble the feature vector for one recording.

        Parameters
        ----------
        curve:
            Mean TX-deconvolved band spectrum on the config's grid,
            already peak-normalised.
        mean_segment:
            Time-domain mean of the aligned echo segments.
        segment_rate:
            Sample rate of ``mean_segment`` (the segmenter's upsampled
            rate).
        """
        curve = np.asarray(curve, dtype=float)
        if curve.size != self.config.num_curve_bins:
            raise ConfigurationError(
                f"curve has {curve.size} bins, expected {self.config.num_curve_bins}"
            )
        stats = curve_statistics(curve, self.config.frequency_grid())
        mfcc_cfg = self.config.mfcc
        if abs(mfcc_cfg.sample_rate - segment_rate) > 1e-6:
            mfcc_cfg = MfccConfig(
                sample_rate=segment_rate,
                frame_length=mfcc_cfg.frame_length,
                frame_hop=mfcc_cfg.frame_hop,
                nfft=mfcc_cfg.nfft,
                num_filters=mfcc_cfg.num_filters,
                num_coefficients=mfcc_cfg.num_coefficients,
                low_hz=mfcc_cfg.low_hz,
                high_hz=mfcc_cfg.high_hz,
            )
        with current_tracer().span(obs_names.SPAN_STAGE_MFCC) as span:
            coefficients = mfcc(np.asarray(mean_segment, dtype=float), mfcc_cfg)
            span.set("frames", int(coefficients.shape[0]))
        mfcc_mean = coefficients.mean(axis=0)
        mfcc_std = coefficients.std(axis=0)
        vector = np.concatenate([curve, stats, mfcc_mean, mfcc_std])
        if vector.size != self.config.vector_length:
            raise ConfigurationError(
                f"assembled {vector.size} features, expected {self.config.vector_length}"
            )
        return vector
