"""Feature standardisation.

The 105-element vector mixes spectrum bins (order 1), statistics
(various scales) and MFCCs (log-domain); z-scoring before distance-based
clustering keeps any one family from dominating the Euclidean metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError, NotFittedError

__all__ = ["StandardScaler"]


@dataclass
class StandardScaler:
    """Per-feature z-score normalisation with constant-feature guard."""

    def __post_init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "StandardScaler":
        """Learn per-column mean and standard deviation from ``data``."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ModelError(f"data must be 2-D, got shape {data.shape}")
        if data.shape[0] < 1:
            raise ModelError("cannot fit a scaler on zero samples")
        self.mean_ = data.mean(axis=0)
        scale = data.std(axis=0)
        # Constant features scale to 1 so they map to exactly zero.
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Z-score ``data`` with the learned statistics."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler.transform called before fit")
        return (np.asarray(data, dtype=float) - self.mean_) / self.scale_

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        """Fit on ``data`` and return its z-scored version."""
        return self.fit(data).transform(data)

