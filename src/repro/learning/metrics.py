"""Evaluation metrics (paper Sec. VI-A).

The paper scores EarSonar with per-class precision, recall, F1, a
row-normalised confusion matrix (Fig. 13d), and — for the robustness
studies — false acceptance rates (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError

__all__ = [
    "confusion_matrix",
    "normalize_confusion",
    "ClassificationReport",
    "classification_report",
    "accuracy",
    "false_acceptance_rate",
]


def confusion_matrix(
    true_labels: np.ndarray, predicted_labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Count matrix ``M[t, p]``: samples of true class ``t`` predicted ``p``."""
    true_labels = np.asarray(true_labels, dtype=int)
    predicted_labels = np.asarray(predicted_labels, dtype=int)
    if true_labels.shape != predicted_labels.shape:
        raise ModelError(
            f"true shape {true_labels.shape} != predicted shape {predicted_labels.shape}"
        )
    matrix = np.zeros((num_classes, num_classes), dtype=int)
    for t, p in zip(true_labels, predicted_labels):
        if not (0 <= t < num_classes and 0 <= p < num_classes):
            raise ModelError(f"label pair ({t}, {p}) outside [0, {num_classes})")
        matrix[t, p] += 1
    return matrix


def normalize_confusion(matrix: np.ndarray) -> np.ndarray:
    """Row-normalise a confusion matrix (each true class sums to 1)."""
    matrix = np.asarray(matrix, dtype=float)
    sums = matrix.sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return matrix / sums


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class and aggregate scores.

    Attributes
    ----------
    precision / recall / f1:
        Arrays indexed by class id.
    support:
        True-sample count per class.
    confusion:
        Raw count confusion matrix.
    """

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    confusion: np.ndarray

    @property
    def accuracy(self) -> float:
        """Overall fraction of correct predictions."""
        total = self.confusion.sum()
        if total == 0:
            return 0.0
        return float(np.trace(self.confusion) / total)

    @property
    def macro_precision(self) -> float:
        """Unweighted mean of per-class precision."""
        return float(np.mean(self.precision))

    @property
    def macro_recall(self) -> float:
        """Unweighted mean of per-class recall."""
        return float(np.mean(self.recall))

    @property
    def median_precision(self) -> float:
        """Median per-class precision (the paper reports medians)."""
        return float(np.median(self.precision))

    @property
    def median_recall(self) -> float:
        """Median per-class recall."""
        return float(np.median(self.recall))

    @property
    def median_f1(self) -> float:
        """Median per-class F1."""
        return float(np.median(self.f1))

    def normalized_confusion(self) -> np.ndarray:
        """Row-normalised confusion matrix (Fig. 13d format)."""
        return normalize_confusion(self.confusion)


def classification_report(
    true_labels: np.ndarray, predicted_labels: np.ndarray, num_classes: int
) -> ClassificationReport:
    """Compute precision/recall/F1 per class plus the confusion matrix."""
    matrix = confusion_matrix(true_labels, predicted_labels, num_classes)
    tp = np.diag(matrix).astype(float)
    predicted_totals = matrix.sum(axis=0).astype(float)
    true_totals = matrix.sum(axis=1).astype(float)
    precision = np.divide(
        tp, predicted_totals, out=np.zeros(num_classes), where=predicted_totals > 0
    )
    recall = np.divide(tp, true_totals, out=np.zeros(num_classes), where=true_totals > 0)
    denom = precision + recall
    f1 = np.divide(2.0 * precision * recall, denom, out=np.zeros(num_classes), where=denom > 0)
    return ClassificationReport(precision, recall, f1, true_totals.astype(int), matrix)


def accuracy(true_labels: np.ndarray, predicted_labels: np.ndarray) -> float:
    """Fraction of matching label pairs."""
    true_labels = np.asarray(true_labels)
    predicted_labels = np.asarray(predicted_labels)
    if true_labels.shape != predicted_labels.shape:
        raise ModelError("label arrays must have identical shape")
    if true_labels.size == 0:
        raise ModelError("accuracy of zero samples is undefined")
    return float(np.mean(true_labels == predicted_labels))


def false_acceptance_rate(
    true_labels: np.ndarray, predicted_labels: np.ndarray, target_class: int, num_classes: int
) -> float:
    """FAR of ``target_class``: fraction of other-class samples accepted as it.

    Matches Fig. 14's per-state FAR panels (reported in percent there).
    """
    matrix = confusion_matrix(true_labels, predicted_labels, num_classes)
    others = [t for t in range(num_classes) if t != target_class]
    falsely_accepted = sum(matrix[t, target_class] for t in others)
    other_total = sum(matrix[t].sum() for t in others)
    if other_total == 0:
        return 0.0
    return float(falsely_accepted / other_total)
