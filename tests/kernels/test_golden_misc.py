"""Golden equivalence: correlation, Laplacian, matched-filter, pipeline kernels."""

import dataclasses

import numpy as np
import pytest

from repro.features.laplacian import laplacian_scores, laplacian_scores_reference
from repro.kernels.chirp import matched_filter_planned
from repro.signal.chirp import ChirpDesign, matched_filter_reference
from repro.signal.correlation import correlation_matrix, correlation_matrix_reference

TOL = 1e-10


@pytest.mark.parametrize("seed,sessions,bins", [(0, 2, 16), (1, 12, 64), (2, 40, 512)])
def test_correlation_matrix_matches_reference(seed, sessions, bins):
    rng = np.random.default_rng(seed)
    curves = rng.standard_normal((sessions, bins))
    fast = correlation_matrix(curves)
    slow = correlation_matrix_reference(curves)
    assert np.max(np.abs(fast - slow)) <= TOL
    np.testing.assert_array_equal(fast, fast.T)  # exactly symmetric


def test_correlation_matrix_constant_row_matches_reference():
    rng = np.random.default_rng(3)
    curves = rng.standard_normal((6, 32))
    curves[2] = 7.5  # zero variance -> coefficient 0 against everything
    fast = correlation_matrix(curves)
    slow = correlation_matrix_reference(curves)
    assert np.max(np.abs(fast - slow)) <= TOL
    assert fast[2, 0] == 0.0 and fast[2, 2] == 1.0


def test_correlation_matrix_degenerate_shapes():
    np.testing.assert_array_equal(correlation_matrix(np.zeros((1, 8))), np.eye(1))
    np.testing.assert_array_equal(correlation_matrix(np.zeros((0, 8))), np.eye(0))
    with pytest.raises(ValueError):
        correlation_matrix(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        correlation_matrix_reference(np.zeros((3, 1)))


@pytest.mark.parametrize(
    "seed,samples,features,neighbors", [(4, 10, 5, 3), (5, 60, 40, 5), (6, 120, 105, 8)]
)
def test_laplacian_scores_match_reference(seed, samples, features, neighbors):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((samples, features))
    fast = laplacian_scores(data, num_neighbors=neighbors)
    slow = laplacian_scores_reference(data, num_neighbors=neighbors)
    assert np.max(np.abs(fast - slow)) <= TOL


def test_laplacian_scores_constant_feature_is_inf_in_both():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((30, 12))
    data[:, 4] = 3.0
    fast = laplacian_scores(data)
    slow = laplacian_scores_reference(data)
    assert np.isinf(fast[4]) and np.isinf(slow[4])
    mask = np.isfinite(slow)
    assert np.array_equal(np.isfinite(fast), mask)
    assert np.max(np.abs(fast[mask] - slow[mask])) <= TOL


@pytest.mark.parametrize("seed,n", [(8, 100), (9, 4096), (10, 48_000)])
def test_matched_filter_matches_reference(seed, n):
    rng = np.random.default_rng(seed)
    design = ChirpDesign()
    x = rng.standard_normal(n)
    fast = matched_filter_planned(x, design)
    slow = matched_filter_reference(x, design)
    assert fast.shape == slow.shape
    assert np.max(np.abs(fast - slow)) <= TOL


def test_absorption_curves_match_per_echo(pipeline, recording):
    filtered = pipeline.preprocess(recording.waveform)
    echoes = pipeline.extract_echoes(filtered)
    assert echoes, "fixture recording must yield echoes"
    batched = pipeline.absorption_curves(echoes)
    serial = np.stack([pipeline.absorption_curve(e) for e in echoes])
    assert np.max(np.abs(batched - serial)) <= TOL
    mean_curve = pipeline.mean_absorption_curve(echoes)
    assert mean_curve.shape == batched[0].shape
    assert mean_curve.max() == pytest.approx(1.0)
    # Mixed lengths: each length group gets its own band-zoom plan, and
    # every row still lands at its echo's position in the stack.
    n = echoes[0].segment.size
    mixed = [
        dataclasses.replace(e, segment=e.segment[: n - 37 * (i % 3)])
        for i, e in enumerate(echoes)
    ]
    assert len({e.segment.size for e in mixed}) == min(3, len(mixed))
    batched = pipeline.absorption_curves(mixed)
    serial = np.stack([pipeline.absorption_curve(e) for e in mixed])
    assert np.max(np.abs(batched - serial)) <= TOL
