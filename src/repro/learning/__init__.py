"""Learning substrate: clustering, assignment, metrics, validation.

All components are implemented from scratch (SciPy serves only as a
test oracle): k-means with k-means++ restarts, the Hungarian algorithm
for cluster-to-state mapping, the outlier rule, classification
metrics including FAR, and group-aware cross-validation splitters.
"""

from .crossval import GroupFold, leave_one_group_out, train_fraction_split
from .kmeans import KMeans, euclidean_distances, kmeans_plus_plus_init
from .mapping import contingency_matrix, hungarian, map_clusters_to_labels
from .metrics import (
    ClassificationReport,
    accuracy,
    classification_report,
    confusion_matrix,
    false_acceptance_rate,
    normalize_confusion,
)
from .outliers import distance_outliers, remove_outliers_multiloop
from .scaling import StandardScaler

__all__ = [
    "GroupFold",
    "leave_one_group_out",
    "train_fraction_split",
    "KMeans",
    "euclidean_distances",
    "kmeans_plus_plus_init",
    "contingency_matrix",
    "hungarian",
    "map_clusters_to_labels",
    "ClassificationReport",
    "accuracy",
    "classification_report",
    "confusion_matrix",
    "false_acceptance_rate",
    "normalize_confusion",
    "distance_outliers",
    "remove_outliers_multiloop",
    "StandardScaler",
]
