"""Band-zoom curves and the batched rake give the oracles' verdicts.

``EarSonarPipeline.absorption_curves`` evaluates each echo's spectrum
with a band-limited direct DFT instead of the full FFT behind
:meth:`EarSonarPipeline.absorption_curve`.  The two are equivalent but
not bit-identical (the golden suite bounds the curves at 1e-10), so
this module checks the contract that matters downstream: on a seeded
reverberant, drifting-device cohort with the rake and calibration
stages on, detectors fitted on either pipeline's features predict the
same states.  The same holds for the rake stage: the pipeline rakes a
capture's events in one batched lag-table call, and a pipeline that
loops the dense ``cancel_early_reflections`` oracle over the events
must give features within 1e-10 and the same verdicts.  The parity
stage segments a capture's events in one batched call, and a pipeline
that loops the per-event ``segment_eardrum_echo`` oracle must give
equal features and the same verdicts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.reverb import ReverbConfig
from repro.core.config import CalibrationConfig, EarSonarConfig
from repro.core.detector import MeeDetector
from repro.core.pipeline import EarSonarPipeline
from repro.errors import NoEchoFoundError
from repro.kernels.plan import rake_plan
from repro.signal.correlation import cancel_early_reflections
from repro.signal.parity import segment_eardrum_echo
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


class RakeOraclePipeline(EarSonarPipeline):
    """The pipeline with the dense rake oracle looped over the events."""

    def cancel_reflections(self, filtered, events):
        plan = rake_plan(self.config.chirp)
        cleaned = filtered.copy()
        removed_total = 0
        for event in events:
            segment, removed = cancel_early_reflections(
                filtered[event.start : event.end],
                plan.pulse,
                plan.quad,
                protect_from=self.rake_protect_from,
                threshold=self.config.reverb.rake_threshold,
            )
            cleaned[event.start : event.end] = segment
            removed_total += removed
        return cleaned, removed_total


class ParityOraclePipeline(EarSonarPipeline):
    """The pipeline with the per-event parity oracle looped over the events."""

    def extract_echoes(self, filtered, events=None):
        if events is None:
            events = self.detect_chirp_events(filtered)
        echoes = []
        for event in events:
            try:
                echoes.append(
                    segment_eardrum_echo(event.slice(filtered), self.config.segmenter)
                )
            except NoEchoFoundError:
                continue
        return echoes


@pytest.fixture(scope="module")
def recordings():
    """One seeded reverberant, drifting-device cohort."""
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
    return simulate_study(cohort, design, rng).recordings


@pytest.fixture(scope="module")
def features(recordings):
    """(oracle features, band-zoom features, states) of the cohort."""
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


@pytest.fixture(scope="module")
def rake_features(recordings):
    """(rake-oracle, batched-rake) processed recordings and the states."""
    oracle = [RakeOraclePipeline(CONFIG).process(r) for r in recordings]
    batched = [EarSonarPipeline(CONFIG).process(r) for r in recordings]
    return oracle, batched, [r.state for r in recordings]


def test_batched_rake_features_match_the_rake_oracle(rake_features):
    oracle, batched, _ = rake_features
    removed = [r.num_reflections_removed for r in oracle]
    assert sum(removed) > 0
    assert [r.num_reflections_removed for r in batched] == removed
    np.testing.assert_allclose(
        np.stack([r.features for r in batched]),
        np.stack([r.features for r in oracle]),
        rtol=0.0,
        atol=1e-10,
    )


def test_detectors_fitted_on_either_rake_predict_identically(rake_features):
    oracle, batched, states = rake_features
    oracle = np.stack([r.features for r in oracle])
    batched = np.stack([r.features for r in batched])
    from_oracle = MeeDetector().fit(oracle, states)
    from_batched = MeeDetector().fit(batched, states)
    predicted = from_oracle.predict(oracle)
    assert from_batched.predict(batched) == predicted
    assert from_oracle.predict(batched) == predicted
    assert from_batched.predict(oracle) == predicted


@pytest.fixture(scope="module")
def parity_features(recordings):
    """(parity-oracle, batched-parity) processed recordings and the states."""
    oracle = [ParityOraclePipeline(CONFIG).process(r) for r in recordings]
    batched = [EarSonarPipeline(CONFIG).process(r) for r in recordings]
    return oracle, batched, [r.state for r in recordings]


def test_batched_parity_features_equal_the_parity_oracle(parity_features):
    oracle, batched, _ = parity_features
    assert [r.num_echoes for r in batched] == [r.num_echoes for r in oracle]
    assert np.array_equal(
        np.stack([r.features for r in batched]), np.stack([r.features for r in oracle])
    )


def test_detectors_fitted_on_either_parity_path_predict_identically(parity_features):
    oracle, batched, states = parity_features
    oracle = np.stack([r.features for r in oracle])
    batched = np.stack([r.features for r in batched])
    from_oracle = MeeDetector().fit(oracle, states)
    from_batched = MeeDetector().fit(batched, states)
    predicted = from_oracle.predict(oracle)
    assert from_batched.predict(batched) == predicted
    assert from_oracle.predict(batched) == predicted
    assert from_batched.predict(oracle) == predicted
