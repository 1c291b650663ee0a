"""Outlier handling for k-means (paper Sec. IV-C4).

The paper's distance rule: points much farther from their cluster
centre than the bulk are removed, with a multi-loop confirmation so a
point is only dropped if it is an outlier in several independent
clustering runs.  (The paper's second strategy, fitting on a random
subset, is not implemented: the detector never used it.)
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .kmeans import KMeans, euclidean_distances

__all__ = ["distance_outliers", "remove_outliers_multiloop"]


def distance_outliers(
    data: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    *,
    threshold_scale: float = 3.0,
) -> np.ndarray:
    """Boolean mask of points abnormally far from their own centre.

    A point is flagged when its distance to its assigned centre
    exceeds ``median + threshold_scale * MAD`` of the distances within
    the same cluster (robust statistics, so the outliers themselves do
    not inflate the cut-off).  Additionally, members of abnormally
    small clusters are flagged wholesale: an extreme outlier typically
    captures a centre for itself (making its own distance zero), which
    is exactly the k-means failure mode the paper's Sec. IV-C4 warns
    about.
    """
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if threshold_scale <= 0:
        raise ConfigurationError(f"threshold_scale must be positive, got {threshold_scale}")
    distances = euclidean_distances(data, centers)[np.arange(data.shape[0]), labels]
    mask = np.zeros(data.shape[0], dtype=bool)
    min_cluster = max(2, int(0.02 * data.shape[0]))
    for k in range(centers.shape[0]):
        members = labels == k
        if not np.any(members):
            continue
        if members.sum() < min_cluster:
            mask[members] = True
            continue
        d = distances[members]
        median = np.median(d)
        mad = np.median(np.abs(d - median))
        cutoff = median + threshold_scale * max(mad, 1e-12)
        mask[members] = d > cutoff
    return mask


def remove_outliers_multiloop(
    data: np.ndarray,
    *,
    num_clusters: int = 4,
    num_loops: int = 3,
    threshold_scale: float = 3.0,
    min_votes: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Multi-loop outlier confirmation (the paper's first strategy).

    Runs ``num_loops`` independent k-means fits; a point is declared an
    outlier only if flagged in at least ``min_votes`` of them (default:
    majority).  Returns a boolean *keep* mask.
    """
    data = np.asarray(data, dtype=float)
    if num_loops < 1:
        raise ConfigurationError(f"num_loops must be >= 1, got {num_loops}")
    if data.shape[0] <= num_clusters:
        return np.ones(data.shape[0], dtype=bool)
    votes = np.zeros(data.shape[0], dtype=int)
    for loop in range(num_loops):
        model = KMeans(num_clusters=num_clusters, num_restarts=3, seed=seed + loop)
        labels = model.fit_predict(data)
        assert model.cluster_centers_ is not None
        votes += distance_outliers(
            data, model.cluster_centers_, labels, threshold_scale=threshold_scale
        )
    needed = (num_loops // 2 + 1) if min_votes is None else min_votes
    return votes < needed
