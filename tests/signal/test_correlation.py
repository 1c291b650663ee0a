"""Tests for correlation utilities."""

import numpy as np
import pytest

from repro.signal.correlation import (
    correlation_matrix,
    pearson,
)


class TestPearson:
    def test_self_correlation(self, rng):
        x = rng.standard_normal(64)
        assert pearson(x, x) == pytest.approx(1.0)

    def test_anticorrelation(self, rng):
        x = rng.standard_normal(64)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_linear_transform_invariance(self, rng):
        x = rng.standard_normal(64)
        assert pearson(x, 3.0 * x + 5.0) == pytest.approx(1.0)

    def test_constant_input_is_zero(self):
        assert pearson(np.ones(10), np.arange(10.0)) == 0.0

    def test_matches_numpy(self, rng):
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson(np.ones(4), np.ones(5))

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson(np.ones(1), np.ones(1))


class TestCorrelationMatrix:
    def test_diagonal_is_one(self, rng):
        curves = rng.standard_normal((5, 64))
        matrix = correlation_matrix(curves)
        np.testing.assert_allclose(np.diag(matrix), np.ones(5))

    def test_symmetric(self, rng):
        matrix = correlation_matrix(rng.standard_normal((6, 32)))
        np.testing.assert_allclose(matrix, matrix.T)

    def test_values_bounded(self, rng):
        matrix = correlation_matrix(rng.standard_normal((6, 32)))
        assert np.all(matrix <= 1.0 + 1e-12)
        assert np.all(matrix >= -1.0 - 1e-12)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.ones(8))
