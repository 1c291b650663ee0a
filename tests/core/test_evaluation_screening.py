"""Tests for study evaluation, LOOCV wiring, and the screening API."""

import pytest

from repro.core.config import DetectorConfig, EarSonarConfig
from repro.core.evaluation import evaluate_loocv, evaluate_split, extract_features
from repro.core.results import index_to_state, state_to_index
from repro.core.screening import EarSonarScreener
from repro.errors import NotFittedError
from repro.simulation.effusion import MeeState
from repro.simulation.session import SessionConfig, record_session


class TestLabelHelpers:
    def test_roundtrip(self):
        for state in MeeState.ordered():
            assert index_to_state(state_to_index(state)) is state

    def test_clear_is_zero(self):
        assert state_to_index(MeeState.CLEAR) == 0
        assert state_to_index(MeeState.PURULENT) == 3


class TestExtractFeatures:
    def test_table_is_aligned(self, small_feature_table):
        table = small_feature_table
        assert table.features.shape == (len(table.states), 105)
        assert len(table.groups) == len(table.states)
        assert len(table.processed) == len(table.states)

    def test_state_indices(self, small_feature_table):
        idx = small_feature_table.state_indices
        assert idx.min() >= 0 and idx.max() <= 3


class TestLoocv:
    def test_no_group_leakage_and_coverage(self, small_feature_table):
        result = evaluate_loocv(
            small_feature_table, DetectorConfig(clusters_per_state=2)
        )
        # Every processed recording is scored exactly once.
        assert result.true_indices.size == len(small_feature_table)
        assert set(result.fold_accuracies) == set(small_feature_table.groups)

    def test_accuracy_beats_chance(self, small_feature_table):
        result = evaluate_loocv(
            small_feature_table, DetectorConfig(clusters_per_state=2)
        )
        assert result.report().accuracy > 0.5

    def test_report_shapes(self, small_feature_table):
        report = evaluate_loocv(
            small_feature_table, DetectorConfig(clusters_per_state=2)
        ).report()
        assert report.precision.shape == (4,)
        assert report.confusion.shape == (4, 4)
        assert report.confusion.sum() == len(small_feature_table)


class TestSplitEvaluation:
    def test_split_respects_groups(self, small_feature_table, rng):
        result = evaluate_split(
            small_feature_table, 0.5, rng, DetectorConfig(clusters_per_state=2)
        )
        assert result.true_indices.size > 0
        assert result.true_indices.size < len(small_feature_table)

    def test_full_fraction_resubstitution(self, small_feature_table, rng):
        result = evaluate_split(
            small_feature_table, 1.0, rng, DetectorConfig(clusters_per_state=2)
        )
        assert result.true_indices.size == len(small_feature_table)


class TestScreener:
    @pytest.fixture(scope="class")
    def fitted_screener(self, small_feature_table):
        screener = EarSonarScreener(
            EarSonarConfig(detector=DetectorConfig(clusters_per_state=2))
        )
        screener.detector.fit(small_feature_table.features, small_feature_table.states)
        return screener

    def test_screen_returns_valid_result(self, fitted_screener, participant, rng):
        rec = record_session(participant, 0.5, SessionConfig(duration_s=0.25), rng)
        result = fitted_screener.screen(rec)
        assert result.state in MeeState.ordered()
        assert 0.0 <= result.confidence <= 1.0
        assert result.cluster_distances.shape == (4,)
        assert result.severity == result.state.severity

    def test_has_effusion_flag(self, fitted_screener, participant, rng):
        rec = record_session(participant, 19.5, SessionConfig(duration_s=0.25), rng)
        result = fitted_screener.screen(rec)
        assert result.has_effusion == result.state.is_effusion

    def test_unfitted_screen_raises(self, participant, rng):
        rec = record_session(participant, 0.5, SessionConfig(duration_s=0.25), rng)
        with pytest.raises(NotFittedError):
            EarSonarScreener().screen(rec)

    def test_severity_tracks_recovery(self, fitted_screener, participant, rng):
        """Screened severity at admission >= severity near recovery."""
        cfg = SessionConfig(duration_s=0.25)
        early = fitted_screener.screen(record_session(participant, 0.5, cfg, rng))
        late = fitted_screener.screen(record_session(participant, 19.5, cfg, rng))
        assert early.severity >= late.severity
