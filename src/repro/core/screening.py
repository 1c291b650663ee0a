"""High-level home-screening API.

``EarSonarScreener`` is the library's front door: fit it once on a
reference study (or load the bundled virtual study), then screen
individual recordings — exactly the paper's envisioned usage where a
caregiver runs a measurement and receives an effusion state with a
confidence estimate.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError
from ..simulation.cohort import StudyDataset
from ..simulation.effusion import MeeState
from ..simulation.session import Recording
from .config import EarSonarConfig
from .detector import MeeDetector
from .evaluation import extract_features
from .pipeline import EarSonarPipeline
from .results import ScreeningResult

__all__ = ["EarSonarScreener"]


class EarSonarScreener:
    """Fit-once, screen-many interface around pipeline + detector."""

    def __init__(self, config: EarSonarConfig | None = None) -> None:
        self.config = config or EarSonarConfig()
        self.pipeline = EarSonarPipeline(self.config)
        self.detector = MeeDetector(self.config.detector)

    @property
    def is_fitted(self) -> bool:
        """Whether the screener has been calibrated on a study."""
        return self.detector.is_fitted

    def fit(
        self,
        dataset: StudyDataset,
        *,
        workers: int = 1,
        cache=None,
        metrics=None,
    ) -> "EarSonarScreener":
        """Calibrate the detector on a labelled reference study.

        Feature extraction runs on the batch runtime: ``workers > 1``
        fans the DSP out over a process pool (identical results, less
        wall-clock) and a :class:`~repro.runtime.cache.FeatureCache`
        makes re-fits on unchanged studies skip signal processing.
        """
        table = extract_features(
            dataset, self.pipeline, workers=workers, cache=cache, metrics=metrics
        )
        self.detector.fit(table.features, table.states)
        return self

    def screen(self, recording: Recording) -> ScreeningResult:
        """Screen one recording and return the predicted state.

        Confidence is the relative margin between the closest and
        second-closest state centres: 0 means a coin flip between two
        states, values near 1 mean an unambiguous assignment.
        """
        if not self.is_fitted:
            raise NotFittedError("EarSonarScreener.screen called before fit")
        processed = self.pipeline.process(recording)
        distances = self.detector.decision_distances(processed.features)[0]
        order = np.argsort(distances)
        best, second = distances[order[0]], distances[order[1]]
        if not np.isfinite(second) or second == 0.0:
            confidence = 1.0
        else:
            confidence = float(np.clip(1.0 - best / second, 0.0, 1.0))
        state = MeeState.ordered()[int(order[0])]
        return ScreeningResult(
            state=state,
            confidence=confidence,
            cluster_distances=distances,
            processed=processed,
        )
