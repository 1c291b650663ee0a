"""Tests for cross-validation splitters, outlier removal, and scaling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError, NotFittedError
from repro.learning.crossval import leave_one_group_out, train_fraction_split
from repro.learning.kmeans import KMeans
from repro.learning.outliers import distance_outliers, remove_outliers_multiloop
from repro.learning.scaling import StandardScaler


class TestLeaveOneGroupOut:
    def test_one_fold_per_group(self):
        groups = ["a", "a", "b", "b", "c"]
        folds = list(leave_one_group_out(groups))
        assert [f.group for f in folds] == ["a", "b", "c"]

    def test_partition_properties(self):
        groups = ["a", "b", "a", "c", "b", "c", "c"]
        for fold in leave_one_group_out(groups):
            train = set(fold.train_indices.tolist())
            test = set(fold.test_indices.tolist())
            assert train | test == set(range(len(groups)))
            assert not (train & test)
            # Held-out group appears only in test.
            assert all(groups[i] == fold.group for i in test)
            assert all(groups[i] != fold.group for i in train)

    def test_needs_two_groups(self):
        with pytest.raises(ConfigurationError):
            list(leave_one_group_out(["a", "a"]))
        with pytest.raises(ConfigurationError):
            list(leave_one_group_out([]))


class TestTrainFractionSplit:
    def test_group_exclusivity(self, rng):
        groups = [f"p{i // 4}" for i in range(40)]  # 10 groups of 4
        train_idx, test_idx = train_fraction_split(groups, 0.5, rng)
        train_groups = {groups[i] for i in train_idx}
        test_groups = {groups[i] for i in test_idx}
        assert not (train_groups & test_groups)
        assert len(train_groups) == 5

    def test_full_fraction_is_resubstitution(self, rng):
        groups = ["a", "b", "c", "d"]
        train_idx, test_idx = train_fraction_split(groups, 1.0, rng)
        np.testing.assert_array_equal(train_idx, test_idx)

    def test_small_fraction_keeps_one_group(self, rng):
        groups = [f"p{i}" for i in range(10)]
        train_idx, _ = train_fraction_split(groups, 0.01, rng)
        assert len(train_idx) == 1

    def test_invalid_fraction(self, rng):
        with pytest.raises(ConfigurationError):
            train_fraction_split(["a", "b"], 0.0, rng)


class TestOutliers:
    def test_distance_outlier_flagged(self, rng):
        data = np.vstack([rng.normal(0, 0.2, size=(50, 2)), [[30.0, 30.0]]])
        model = KMeans(num_clusters=1, seed=0).fit(data)
        mask = distance_outliers(data, model.cluster_centers_, model.labels_)
        assert mask[-1]
        assert mask.sum() <= 3

    def test_multiloop_keeps_inliers(self, rng):
        data = np.vstack(
            [
                rng.normal(0, 0.2, size=(40, 2)),
                rng.normal(8, 0.2, size=(40, 2)),
                [[100.0, -100.0]],
            ]
        )
        keep = remove_outliers_multiloop(data, num_clusters=2, seed=3)
        assert not keep[-1]
        assert keep[:-1].mean() > 0.9

    def test_multiloop_small_data_keeps_everything(self, rng):
        data = rng.normal(size=(3, 2))
        keep = remove_outliers_multiloop(data, num_clusters=4)
        assert keep.all()

    def test_threshold_scale_validation(self, rng):
        data = rng.normal(size=(10, 2))
        model = KMeans(num_clusters=2, seed=0).fit(data)
        with pytest.raises(ConfigurationError):
            distance_outliers(
                data, model.cluster_centers_, model.labels_, threshold_scale=0.0
            )


class TestScaler:
    def test_zero_mean_unit_variance(self, rng):
        data = rng.normal(5.0, 3.0, size=(200, 4))
        scaled = StandardScaler().fit_transform(data)
        np.testing.assert_allclose(scaled.mean(axis=0), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), np.ones(4), atol=1e-9)

    def test_constant_feature_maps_to_zero(self, rng):
        data = np.hstack([rng.normal(size=(20, 1)), np.full((20, 1), 7.0)])
        scaled = StandardScaler().fit_transform(data)
        np.testing.assert_allclose(scaled[:, 1], np.zeros(20))

    def test_unfitted_raises(self, rng):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(rng.normal(size=(3, 2)))

    def test_requires_2d(self, rng):
        with pytest.raises(ModelError):
            StandardScaler().fit(rng.normal(size=5))
