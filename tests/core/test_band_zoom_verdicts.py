"""Band-zoom absorption curves give the same verdicts as the per-echo oracle.

``EarSonarPipeline.absorption_curves`` evaluates each echo's spectrum
with a band-limited direct DFT instead of the full FFT behind
:meth:`EarSonarPipeline.absorption_curve`.  The two are equivalent but
not bit-identical (the golden suite bounds the curves at 1e-10), so
this module checks the contract that matters downstream: on a seeded
reverberant, drifting-device cohort with the rake and calibration
stages on, detectors fitted on either pipeline's features predict the
same states.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.reverb import ReverbConfig
from repro.core.config import CalibrationConfig, EarSonarConfig
from repro.core.detector import MeeDetector
from repro.core.pipeline import EarSonarPipeline
from repro.errors import NoEchoFoundError
from repro.simulation import SessionConfig, StudyDesign, build_cohort, simulate_study
from repro.simulation.calibration import CalibrationDriftConfig

CONFIG = EarSonarConfig(
    reverb=ReverbConfig(enabled=True), calibration=CalibrationConfig(enabled=True)
)


class OraclePipeline(EarSonarPipeline):
    """The pipeline with the per-echo full-FFT curve stacked row by row."""

    def absorption_curves(self, echoes):
        if not echoes:
            raise NoEchoFoundError("cannot average zero echoes")
        return np.stack([self.absorption_curve(e) for e in echoes])


@pytest.fixture(scope="module")
def features():
    """(oracle features, band-zoom features, states) of one seeded cohort."""
    rng = np.random.default_rng(4242)
    cohort = build_cohort(3, rng, total_days=8)
    design = StudyDesign(
        total_days=8,
        sessions_per_day=1,
        session_config=SessionConfig(
            duration_s=0.1,
            reverb=ReverbConfig(enabled=True),
            calibration=CalibrationDriftConfig(enabled=True),
        ),
    )
    recordings = simulate_study(cohort, design, rng).recordings
    oracle = [OraclePipeline(CONFIG).process(r) for r in recordings]
    zoom = [EarSonarPipeline(CONFIG).process(r) for r in recordings]
    return (
        np.stack([r.features for r in oracle]),
        np.stack([r.features for r in zoom]),
        [r.state for r in recordings],
    )


def test_features_agree_to_rounding(features):
    oracle, zoom, _ = features
    np.testing.assert_allclose(zoom, oracle, rtol=1e-9, atol=1e-12)


def test_detectors_fitted_on_either_path_predict_identically(features):
    oracle, zoom, states = features
    assert len(states) >= 16
    from_oracle = MeeDetector().fit(oracle, states)
    from_zoom = MeeDetector().fit(zoom, states)
    predicted = from_oracle.predict(oracle)
    assert from_zoom.predict(zoom) == predicted
    assert from_oracle.predict(zoom) == predicted
    assert from_zoom.predict(oracle) == predicted
