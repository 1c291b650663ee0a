"""Tests for classification metrics."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.learning.metrics import (
    accuracy,
    classification_report,
    confusion_matrix,
    false_acceptance_rate,
    normalize_confusion,
)


class TestConfusion:
    def test_hand_example(self):
        true = np.array([0, 0, 1, 1, 2])
        pred = np.array([0, 1, 1, 1, 0])
        matrix = confusion_matrix(true, pred, 3)
        np.testing.assert_array_equal(matrix, [[1, 1, 0], [0, 2, 0], [1, 0, 0]])

    def test_normalization_rows_sum_to_one(self):
        matrix = np.array([[3, 1], [0, 0]])
        normalized = normalize_confusion(matrix)
        np.testing.assert_allclose(normalized[0], [0.75, 0.25])
        np.testing.assert_allclose(normalized[1], [0.0, 0.0])  # empty row stays zero

    def test_out_of_range_rejected(self):
        with pytest.raises(ModelError):
            confusion_matrix(np.array([4]), np.array([0]), 3)


class TestReport:
    def test_perfect_prediction(self):
        true = np.array([0, 1, 2, 3] * 5)
        report = classification_report(true, true, 4)
        np.testing.assert_allclose(report.precision, np.ones(4))
        np.testing.assert_allclose(report.recall, np.ones(4))
        np.testing.assert_allclose(report.f1, np.ones(4))
        assert report.accuracy == 1.0

    def test_hand_computed_example(self):
        true = np.array([0, 0, 0, 1, 1, 1])
        pred = np.array([0, 0, 1, 1, 1, 0])
        report = classification_report(true, pred, 2)
        assert report.precision[0] == pytest.approx(2 / 3)
        assert report.recall[0] == pytest.approx(2 / 3)
        assert report.precision[1] == pytest.approx(2 / 3)
        assert report.recall[1] == pytest.approx(2 / 3)
        assert report.accuracy == pytest.approx(4 / 6)

    def test_absent_class_scores_zero(self):
        true = np.array([0, 0, 1])
        pred = np.array([0, 0, 1])
        report = classification_report(true, pred, 3)
        assert report.precision[2] == 0.0
        assert report.recall[2] == 0.0
        assert report.f1[2] == 0.0

    def test_medians(self):
        true = np.array([0, 1, 2, 3] * 10)
        pred = true.copy()
        pred[0] = 1  # one error
        report = classification_report(true, pred, 4)
        assert 0.9 <= report.median_precision <= 1.0
        assert 0.9 <= report.median_recall <= 1.0

    def test_support(self):
        true = np.array([0, 0, 0, 1])
        report = classification_report(true, true, 2)
        np.testing.assert_array_equal(report.support, [3, 1])


class TestAccuracy:
    def test_basic(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            accuracy(np.array([]), np.array([]))

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            accuracy(np.array([1]), np.array([1, 2]))


class TestFarFrr:
    def test_far_counts_other_class_acceptances(self):
        # Class 0: two class-1 samples predicted as 0 out of 4 non-0 samples.
        true = np.array([0, 0, 1, 1, 1, 1])
        pred = np.array([0, 0, 0, 0, 1, 1])
        assert false_acceptance_rate(true, pred, 0, 2) == pytest.approx(0.5)

    def test_perfect_prediction_zero_rates(self):
        true = np.array([0, 1, 2, 3] * 3)
        for c in range(4):
            assert false_acceptance_rate(true, true, c, 4) == 0.0
