"""Tests for the 105-element feature vector assembly."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.features.vector import FeatureVectorBuilder, FeatureVectorConfig


class TestConfig:
    def test_paper_vector_length_is_105(self):
        assert FeatureVectorConfig().vector_length == 105

    def test_frequency_grid_spans_probe_band(self):
        grid = FeatureVectorConfig().frequency_grid()
        assert grid[0] == 16_000.0
        assert grid[-1] == 20_000.0
        assert grid.size == 64

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FeatureVectorConfig(num_curve_bins=4)
        with pytest.raises(ConfigurationError):
            FeatureVectorConfig(band_low_hz=20_000.0, band_high_hz=16_000.0)


class TestBuilder:
    def _build(self, rng, config=None):
        config = config or FeatureVectorConfig()
        builder = FeatureVectorBuilder(config)
        curve = rng.uniform(0.3, 1.0, config.num_curve_bins)
        segment = rng.standard_normal(512)
        return builder.build(curve, segment, 384_000.0)

    def test_vector_length(self, rng):
        assert self._build(rng).size == 105

    def test_curve_embedded_verbatim(self, rng):
        config = FeatureVectorConfig()
        builder = FeatureVectorBuilder(config)
        curve = rng.uniform(0.3, 1.0, 64)
        vector = builder.build(curve, rng.standard_normal(512), 384_000.0)
        np.testing.assert_allclose(vector[:64], curve)

    def test_all_finite(self, rng):
        assert np.all(np.isfinite(self._build(rng)))

    def test_wrong_curve_length_rejected(self, rng):
        builder = FeatureVectorBuilder()
        with pytest.raises(ConfigurationError):
            builder.build(np.ones(10), rng.standard_normal(512), 384_000.0)

    def test_rate_override_changes_nothing_structural(self, rng):
        """Segments at a non-default rate still yield a 105-vector."""
        builder = FeatureVectorBuilder()
        vector = builder.build(
            rng.uniform(0.3, 1.0, 64), rng.standard_normal(256), 192_000.0
        )
        assert vector.size == 105

    def test_deterministic(self, rng):
        config = FeatureVectorConfig()
        builder = FeatureVectorBuilder(config)
        curve = rng.uniform(0.3, 1.0, 64)
        segment = rng.standard_normal(512)
        a = builder.build(curve, segment, 384_000.0)
        b = builder.build(curve, segment, 384_000.0)
        np.testing.assert_allclose(a, b)
