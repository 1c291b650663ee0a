"""Tests for the Chan-2019 and threshold baselines on simulated data."""

import numpy as np
import pytest

from repro.baselines.chan2019 import Chan2019Config, Chan2019Detector
from repro.baselines.threshold import ThresholdConfig, ThresholdDetector
from repro.errors import ConfigurationError, ModelError, NotFittedError
from repro.simulation.effusion import MeeState


@pytest.fixture(scope="module")
def study_split(small_study):
    """Train/test recordings split by participant."""
    pids = small_study.participant_ids
    train_p, test_p = set(pids[:4]), set(pids[4:])
    train = [r for r in small_study if r.participant_id in train_p]
    test = [r for r in small_study if r.participant_id in test_p]
    return train, test


class TestChan2019Features:
    def test_feature_length(self, study_split):
        train, _ = study_split
        det = Chan2019Detector()
        assert det.features(train[0]).size == det.config.num_bins

    def test_feature_peak_normalised(self, study_split):
        train, _ = study_split
        assert Chan2019Detector().features(train[0]).max() == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Chan2019Config(num_bins=1)
        with pytest.raises(ConfigurationError):
            Chan2019Config(band_low_hz=20_000.0, band_high_hz=16_000.0)

    def test_rate_mismatch_rejected(self, study_split):
        train, _ = study_split
        det = Chan2019Detector(Chan2019Config(sample_rate=44_100.0))
        with pytest.raises(ModelError):
            det.features(train[0])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ModelError):
            Chan2019Detector().feature_matrix([])


class TestChan2019Binary:
    def test_beats_chance_on_held_out_participants(self, study_split):
        train, test = study_split
        det = Chan2019Detector()
        det.fit_binary(train, [r.state for r in train])
        predicted = det.predict_fluid(test)
        truth = np.array([1 if r.state.is_effusion else 0 for r in test])
        assert np.mean(predicted == truth) > 0.8

    def test_unfitted_raises(self, study_split):
        _, test = study_split
        with pytest.raises(NotFittedError):
            Chan2019Detector().predict_fluid(test)


class TestChan2019States:
    def test_four_state_above_chance_below_earsonar(self, study_split):
        train, test = study_split
        det = Chan2019Detector()
        det.fit_states(train, [r.state for r in train])
        predicted = det.predict_states(test)
        truth = [r.state for r in test]
        acc = np.mean([p is t for p, t in zip(predicted, truth)])
        assert acc > 0.4  # well above the 0.25 chance level

    def test_unfitted_raises(self, study_split):
        _, test = study_split
        with pytest.raises(NotFittedError):
            Chan2019Detector().predict_states(test)


class TestThreshold:
    def test_binary_detection_above_chance(self, study_split):
        train, test = study_split
        det = ThresholdDetector()
        det.fit(train, [r.state for r in train])
        predicted = det.predict_fluid(test)
        truth = np.array([1 if r.state.is_effusion else 0 for r in test])
        assert np.mean(predicted == truth) > 0.7

    def test_statistic_lower_for_fluid(self, study_split):
        train, _ = study_split
        det = ThresholdDetector()
        fluid_stats = [det.statistic(r) for r in train if r.state.is_effusion]
        clear_stats = [det.statistic(r) for r in train if not r.state.is_effusion]
        assert np.median(fluid_stats) < np.median(clear_stats)

    def test_needs_both_classes(self, study_split):
        train, _ = study_split
        fluid_only = [r for r in train if r.state.is_effusion]
        with pytest.raises(ModelError):
            ThresholdDetector().fit(fluid_only, [r.state for r in fluid_only])

    def test_unfitted_raises(self, study_split):
        _, test = study_split
        with pytest.raises(NotFittedError):
            ThresholdDetector().predict_fluid(test)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdConfig(dip_low_hz=19_000.0, dip_high_hz=17_000.0)
