"""End-to-end EarSonar configuration.

One :class:`EarSonarConfig` object wires together every stage of the
paper's pipeline — chirp design, band-pass filter, event detection,
echo segmentation, feature extraction, and detection — with the
published defaults.  Stage configs remain independently usable; this
container exists so applications configure the system in one place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

from ..acoustics.reverb import ReverbConfig
from ..errors import ConfigurationError
from ..features.vector import FeatureVectorConfig
from ..signal.chirp import ChirpDesign
from ..signal.events import EventDetectorConfig
from ..signal.parity import EchoSegmenterConfig

__all__ = [
    "BandpassConfig",
    "CalibrationConfig",
    "DetectorConfig",
    "EarSonarConfig",
    "config_fingerprint",
]


def _canonicalize(value):
    """Reduce a config value to a deterministic JSON-serializable form.

    Dataclasses become ``{"<ClassName>": {field: ...}}`` so that moving a
    value between differently-named sub-configs cannot collide; floats go
    through ``repr`` to keep full precision across platforms.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {type(value).__name__: fields}
    if isinstance(value, Enum):
        return [type(value).__name__, value.name]
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonicalize(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise ConfigurationError(
        f"cannot fingerprint config value of type {type(value).__name__}"
    )


def config_fingerprint(config: object) -> str:
    """Stable SHA-256 hex digest of a (possibly nested) config dataclass.

    Two configs share a fingerprint iff every nested field is equal, so
    the digest is safe to use as a cache namespace: any parameter change
    anywhere in the tree invalidates previously cached results.
    """
    canonical = json.dumps(
        _canonicalize(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BandpassConfig:
    """Butterworth band-pass settings for noise removal (Sec. IV-B1)."""

    order: int = 4
    low_hz: float = 15_000.0
    high_hz: float = 21_000.0

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ConfigurationError(f"order must be >= 1, got {self.order}")
        if not 0.0 < self.low_hz < self.high_hz:
            raise ConfigurationError("need 0 < low_hz < high_hz")


@dataclass(frozen=True)
class DetectorConfig:
    """K-means detection settings (Sec. IV-C3/C4).

    Attributes
    ----------
    num_states:
        Number of effusion states (paper: 4).
    clusters_per_state:
        Sub-clusters per state for the paper's *in-group* k-means
        (Sec. IV-C3): each state's recordings spread along a severity
        continuum, so several Euclidean sub-clusters per state fit the
        manifold; every sub-cluster maps to its majority training
        state.  1 recovers plain one-cluster-per-state k-means.
    selected_features:
        Features kept by Laplacian score (paper: 25 of 105).
    kmeans_restarts:
        k-means++ restarts per fit.
    outlier_removal:
        Whether to run the multi-loop outlier confirmation before the
        final fit.
    outlier_loops:
        Independent clusterings used to confirm outliers.
    seed:
        Seed for all stochastic learning components.
    """

    num_states: int = 4
    clusters_per_state: int = 4
    selected_features: int = 25
    kmeans_restarts: int = 10
    outlier_removal: bool = True
    outlier_loops: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_states < 2:
            raise ConfigurationError(f"num_states must be >= 2, got {self.num_states}")
        if self.clusters_per_state < 1:
            raise ConfigurationError(
                f"clusters_per_state must be >= 1, got {self.clusters_per_state}"
            )
        if self.selected_features < 1:
            raise ConfigurationError(
                f"selected_features must be >= 1, got {self.selected_features}"
            )
        if self.kmeans_restarts < 1:
            raise ConfigurationError(
                f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}"
            )
        if self.outlier_loops < 1:
            raise ConfigurationError(f"outlier_loops must be >= 1, got {self.outlier_loops}")


@dataclass(frozen=True)
class RobustnessConfig:
    """Graceful-degradation policy of the signal pipeline.

    Attributes
    ----------
    sanitize_nonfinite:
        When true, NaN/Inf samples are zero-filled (becoming ordinary
        dropouts) and processing continues with a reduced confidence
        tag, provided their fraction stays below
        ``max_nonfinite_fraction``.  When false (the default), any
        non-finite sample raises
        :class:`~repro.errors.InvalidWaveformError` — a loud, typed
        failure instead of NaN-poisoned features.
    max_nonfinite_fraction:
        Ceiling on the salvageable NaN/Inf fraction; beyond it the
        recording is rejected even under ``sanitize_nonfinite``.
    drop_corrupted_chirps:
        When true (the default), chirps whose echo segment or
        absorption curve is non-finite or identically zero are dropped
        from the train and the survivors are averaged; the result
        carries ``confidence < 1`` and ``num_chirps_dropped``.  On a
        clean recording nothing is dropped and the output is
        bit-identical to the strict path.
    """

    sanitize_nonfinite: bool = False
    max_nonfinite_fraction: float = 0.1
    drop_corrupted_chirps: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_nonfinite_fraction <= 1.0:
            raise ConfigurationError(
                "max_nonfinite_fraction must be in [0, 1], "
                f"got {self.max_nonfinite_fraction}"
            )


@dataclass(frozen=True)
class CalibrationConfig:
    """On-device calibration-offset estimation (à la Xu & Kollmeier).

    Consumer earphones drift out of calibration over weeks of use: a
    broadband gain error plus a spectral tilt across the probe band.
    When enabled, the pipeline fits a dB-linear baseline (gain + tilt)
    to the *band edges* of every per-echo absorption curve — away from
    the diagnostic ~18 kHz notch — divides the pooled baseline out, and
    reports the recovered gain as
    ``ProcessedRecording.calibration_offset_db``.

    Attributes
    ----------
    enabled:
        Master switch; False (the default) skips the stage entirely, so
        disabled runs stay bit-identical to the seed pipeline.
    edge_fraction:
        Fraction of grid bins at *each* band edge used for the baseline
        fit; kept small so the notch region never leaks into the fit.
    max_offset_db:
        Clamp on the estimated gain and tilt; estimates beyond this are
        physically implausible (a device that far out of spec fails the
        quality gate long before calibration matters).
    reference_level_db:
        Fleet-average band-edge level of a *calibrated* device on the
        default TX reference; the reported
        ``ProcessedRecording.calibration_offset_db`` is the fitted
        baseline gain relative to this anchor, so a calibrated capture
        reports ~0 dB and a drifted one reports its broadband gain
        error (the Xu & Kollmeier deviation-from-reference estimate).
        The anchor only shifts the *report*; the correction divides out
        the full fitted baseline either way.
    instability_db:
        Ceiling on the per-echo spread (standard deviation) of the
        fitted gain.  Beyond it the estimate is judged unstable: the
        correction is still applied (it is the pooled median, robust to
        a few bad echoes) but the recording's confidence is downgraded
        and tagged ``calibration_unstable``.
    unstable_confidence:
        Multiplier applied to ``ProcessedRecording.confidence`` when
        the estimate is unstable.
    """

    enabled: bool = False
    edge_fraction: float = 0.15
    max_offset_db: float = 12.0
    reference_level_db: float = -1.7
    instability_db: float = 6.0
    unstable_confidence: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.edge_fraction <= 0.4:
            raise ConfigurationError(
                f"edge_fraction must be in (0, 0.4], got {self.edge_fraction}"
            )
        if self.max_offset_db <= 0.0:
            raise ConfigurationError(
                f"max_offset_db must be positive, got {self.max_offset_db}"
            )
        if self.instability_db <= 0.0:
            raise ConfigurationError(
                f"instability_db must be positive, got {self.instability_db}"
            )
        if not 0.0 < self.unstable_confidence <= 1.0:
            raise ConfigurationError(
                f"unstable_confidence must be in (0, 1], got {self.unstable_confidence}"
            )


@dataclass(frozen=True)
class EarSonarConfig:
    """Complete EarSonar system configuration with the paper's defaults."""

    chirp: ChirpDesign = field(default_factory=ChirpDesign)
    bandpass: BandpassConfig = field(default_factory=BandpassConfig)
    events: EventDetectorConfig = field(default_factory=EventDetectorConfig)
    segmenter: EchoSegmenterConfig = field(default_factory=EchoSegmenterConfig)
    features: FeatureVectorConfig = field(default_factory=FeatureVectorConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    robustness: RobustnessConfig = field(default_factory=RobustnessConfig)
    #: Echo-aware separation: when ``reverb.enabled`` the pipeline runs
    #: the rake stage that estimates and subtracts early canal
    #: reflections before echo segmentation.  Disabled (the default) is
    #: bit-identical to the anechoic seed pipeline.
    reverb: ReverbConfig = field(default_factory=ReverbConfig)
    #: On-device calibration-offset estimation; disabled by default.
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    #: Minimum echoes that must be extracted for a recording to count.
    min_echoes: int = 3

    def __post_init__(self) -> None:
        if self.min_echoes < 1:
            raise ConfigurationError(f"min_echoes must be >= 1, got {self.min_echoes}")
        if self.segmenter.sample_rate != self.chirp.sample_rate:
            raise ConfigurationError(
                "segmenter sample_rate must match the chirp design sample_rate"
            )
        if not (
            self.bandpass.low_hz
            <= self.chirp.start_frequency
            < self.chirp.end_frequency
            <= self.bandpass.high_hz
        ):
            raise ConfigurationError(
                "band-pass filter must contain the chirp sweep band"
            )

    def fingerprint(self) -> str:
        """Content hash of the full configuration tree.

        Used by :mod:`repro.runtime.cache` as part of every cache key:
        features computed under one configuration are never served for
        another, however small the difference.
        """
        return config_fingerprint(self)
