"""Tests for the otoscopist label-noise model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulation.effusion import MeeState
from repro.simulation.groundtruth import OtoscopistModel, relabel_states


class TestOtoscopistModel:
    def test_zero_error_is_identity(self, rng):
        model = OtoscopistModel(presence_error=0.0, type_error=0.0)
        states = [s for s in MeeState.ordered()] * 20
        assert relabel_states(states, rng, model) == states

    def test_errors_are_adjacent_only(self, rng):
        model = OtoscopistModel(presence_error=0.3, type_error=0.3)
        order = MeeState.ordered()
        for true_state in order:
            for _ in range(200):
                observed = model.observe(true_state, rng)
                assert abs(order.index(observed) - order.index(true_state)) <= 1

    def test_error_rate_matches_configuration(self):
        rng = np.random.default_rng(3)
        model = OtoscopistModel(presence_error=0.0, type_error=0.2)
        observations = [model.observe(MeeState.MUCOID, rng) for _ in range(4000)]
        errors = np.mean([o is not MeeState.MUCOID for o in observations])
        # Mucoid has two fluid-type neighbours -> total error ~0.4.
        assert errors == pytest.approx(0.4, abs=0.04)

    def test_clear_never_becomes_mucoid(self):
        rng = np.random.default_rng(4)
        model = OtoscopistModel(presence_error=0.4, type_error=0.4)
        observed = {model.observe(MeeState.CLEAR, rng) for _ in range(500)}
        assert MeeState.MUCOID not in observed
        assert MeeState.PURULENT not in observed

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OtoscopistModel(presence_error=0.6)
        with pytest.raises(ConfigurationError):
            OtoscopistModel(type_error=-0.1)


class TestDetectionUnderLabelNoise:
    def test_accuracy_degrades_gracefully(self, small_feature_table):
        """Training labels with otoscope noise still yield a working detector."""
        from repro.core.config import DetectorConfig
        from repro.core.detector import MeeDetector
        from repro.core.results import state_to_index

        rng = np.random.default_rng(5)
        table = small_feature_table
        noisy = relabel_states(table.states, rng, OtoscopistModel())
        detector = MeeDetector(DetectorConfig(clusters_per_state=2))
        detector.fit(table.features, noisy)
        predicted = detector.predict_indices(table.features)
        truth = np.array([state_to_index(s) for s in table.states])
        # Scored against the *true* states: the clustering is label-free,
        # so modest label noise mostly perturbs cluster naming.
        assert np.mean(predicted == truth) > 0.6
