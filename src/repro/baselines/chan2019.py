"""The prior acoustic MEE detector of Chan et al. (2019).

Chan et al. ("Detecting middle ear fluid using smartphones", Science
Translational Medicine 2019) probe the ear with a chirp and classify
the *whole reflected spectrum* around the acoustic dip with logistic
regression — binary fluid/no-fluid, no echo segmentation, no
fine-grained feature engineering.  The EarSonar paper attributes its
~8 % accuracy advantage to exactly that missing fine-grained stage
(Sec. I, VI-B).

This adaptation runs on the same earphone recordings as EarSonar (the
published system used a smartphone and paper funnel; the acoustic
principle is identical):

* coarse features: the band amplitude spectrum of the *entire*
  band-passed recording, averaged into a small number of bins — no
  event detection, no eardrum-echo segmentation, no TX deconvolution;
* **binary** detection (their published task) via from-scratch
  logistic regression;
* **four-state** grading (for the head-to-head with EarSonar) via the
  same k-means backend EarSonar uses, but over the coarse features —
  isolating the contribution of the fine-grained pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.results import index_to_state, state_to_index
from ..errors import ConfigurationError, ModelError, NotFittedError
from ..learning.kmeans import KMeans
from ..learning.mapping import map_clusters_to_labels
from ..learning.scaling import StandardScaler
from ..signal.filters import butterworth_bandpass
from ..signal.spectral import amplitude_spectrum
from ..simulation.effusion import MeeState
from ..simulation.session import Recording
from .logistic import LogisticRegression

__all__ = ["Chan2019Config", "Chan2019Detector"]


@dataclass(frozen=True)
class Chan2019Config:
    """Coarse-spectrum feature settings for the baseline."""

    sample_rate: float = 48_000.0
    band_low_hz: float = 16_000.0
    band_high_hz: float = 20_000.0
    num_bins: int = 24
    filter_order: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.band_low_hz < self.band_high_hz:
            raise ConfigurationError("need 0 < band_low_hz < band_high_hz")
        if self.num_bins < 2:
            raise ConfigurationError(f"num_bins must be >= 2, got {self.num_bins}")


class Chan2019Detector:
    """Coarse-spectrum MEE detector (binary and four-state variants)."""

    def __init__(self, config: Chan2019Config | None = None, *, seed: int = 0) -> None:
        self.config = config or Chan2019Config()
        self.seed = seed
        cfg = self.config
        self._bandpass = butterworth_bandpass(
            cfg.filter_order,
            cfg.band_low_hz - 1_000.0,
            cfg.band_high_hz + 1_000.0,
            cfg.sample_rate,
        )
        self._scaler: StandardScaler | None = None
        self._logistic: LogisticRegression | None = None
        self._kmeans: KMeans | None = None
        self._cluster_to_label: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # Features
    # ------------------------------------------------------------------

    def features(self, recording: Recording) -> np.ndarray:
        """Coarse normalised band-spectrum features of one recording."""
        if abs(recording.sample_rate - self.config.sample_rate) > 1e-6:
            raise ModelError(
                f"recording rate {recording.sample_rate} != config rate "
                f"{self.config.sample_rate}"
            )
        filtered = self._bandpass.apply(recording.waveform)
        spectrum = amplitude_spectrum(filtered, recording.sample_rate)
        band = spectrum.band(self.config.band_low_hz, self.config.band_high_hz)
        if band.values.size < self.config.num_bins:
            raise ModelError("recording too short for the configured bin count")
        # Average the band into coarse bins and peak-normalise.
        edges = np.linspace(0, band.values.size, self.config.num_bins + 1).astype(int)
        coarse = np.array(
            [band.values[a:b].mean() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])]
        )
        peak = coarse.max()
        return coarse / peak if peak > 0 else coarse

    def feature_matrix(self, recordings: list[Recording]) -> np.ndarray:
        """Stack of coarse feature vectors for many recordings."""
        if not recordings:
            raise ModelError("need at least one recording")
        return np.stack([self.features(r) for r in recordings])

    # ------------------------------------------------------------------
    # Binary task (their published classifier)
    # ------------------------------------------------------------------

    def fit_binary(self, recordings: list[Recording], states: list[MeeState]) -> "Chan2019Detector":
        """Fit the fluid/no-fluid logistic regression."""
        matrix = self.feature_matrix(recordings)
        labels = np.array([1.0 if s.is_effusion else 0.0 for s in states])
        self._scaler = StandardScaler()
        scaled = self._scaler.fit_transform(matrix)
        self._logistic = LogisticRegression()
        self._logistic.fit(scaled, labels)
        return self

    def predict_fluid(self, recordings: list[Recording]) -> np.ndarray:
        """Binary fluid predictions (1 = effusion present)."""
        if self._logistic is None or self._scaler is None:
            raise NotFittedError("fit_binary must run before predict_fluid")
        matrix = self.feature_matrix(recordings)
        return self._logistic.predict(self._scaler.transform(matrix))

    # ------------------------------------------------------------------
    # Four-state task (head-to-head with EarSonar)
    # ------------------------------------------------------------------

    def fit_states(self, recordings: list[Recording], states: list[MeeState]) -> "Chan2019Detector":
        """Fit the four-state variant (coarse features + k-means)."""
        matrix = self.feature_matrix(recordings)
        labels = np.array([state_to_index(s) for s in states])
        self._scaler = StandardScaler()
        scaled = self._scaler.fit_transform(matrix)
        num_states = len(MeeState.ordered())
        self._kmeans = KMeans(num_clusters=num_states, seed=self.seed)
        clusters = self._kmeans.fit_predict(scaled)
        self._cluster_to_label = map_clusters_to_labels(
            clusters, labels, num_states, num_states
        )
        return self

    def predict_states(self, recordings: list[Recording]) -> list[MeeState]:
        """Four-state predictions."""
        if self._kmeans is None or self._cluster_to_label is None or self._scaler is None:
            raise NotFittedError("fit_states must run before predict_states")
        matrix = self.feature_matrix(recordings)
        clusters = self._kmeans.predict(self._scaler.transform(matrix))
        return [index_to_state(self._cluster_to_label[int(c)]) for c in clusters]
