"""Feature engineering: curve statistics, MFCC aggregation, selection.

Implements the paper's 105-element feature vector (fine-grained
absorbed-spectrum bins + statistics + MFCCs) and the Laplacian-score
selection that keeps the 25 most important features.
"""

from .laplacian import LaplacianScoreSelector, laplacian_scores, laplacian_scores_reference
from .statistics import (
    curve_statistics,
    kurtosis,
    maximum,
    mean,
    minimum,
    skewness,
    spectral_centroid,
    standard_deviation,
)
from .vector import FeatureVectorBuilder, FeatureVectorConfig

__all__ = [
    "LaplacianScoreSelector",
    "laplacian_scores",
    "laplacian_scores_reference",
    "curve_statistics",
    "kurtosis",
    "maximum",
    "mean",
    "minimum",
    "skewness",
    "spectral_centroid",
    "standard_deviation",
    "FeatureVectorBuilder",
    "FeatureVectorConfig",
]
