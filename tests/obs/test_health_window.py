"""Merge semantics of the fleet-health aggregation primitives.

Windows answer a horizon by merging their buckets' sketches, and a
rollup answers its label-blind total by merging its rows' windows, so
both rest on one algebraic property: a stream split in parts and
merged back must equal the same stream fed to one aggregator.  These
tests pin that property for the quantile sketch (integer buckets:
bit-exact under any split) and the sliding window (epoch-aligned grid:
split/merge equality with order-robust values), plus the rollup
series' label vocabulary and cardinality budget.

Values in split-vs-single comparisons are dyadic rationals (multiples
of 1/64) so float summation is associative and the equality can be
byte-level, not approximate.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.obs.health.rollup import OVERFLOW_VALUE, RollupSeries
from repro.obs.health.sketch import GROWTH, QuantileSketch
from repro.obs.health.window import SlidingWindow, WindowConfig


def dyadic_stream(seed: int, n: int) -> list[float]:
    """Positive multiples of 1/64: order-independent float sums."""
    rng = random.Random(seed)
    return [rng.randrange(1, 4096) / 64.0 for _ in range(n)]


def fill(sketch: QuantileSketch, values) -> QuantileSketch:
    for value in values:
        sketch.observe(value)
    return sketch


def state(sketch: QuantileSketch) -> tuple:
    """Everything a sketch holds, for exact equality checks."""
    return (sketch.count, sketch.total, sketch.vmin, sketch.vmax, sketch.buckets)


class TestSketchMergeAlgebra:
    def test_merge_is_commutative(self):
        a_values, b_values = dyadic_stream(1, 300), dyadic_stream(2, 171)
        ab = fill(QuantileSketch(), a_values)
        ab.merge(fill(QuantileSketch(), b_values))
        ba = fill(QuantileSketch(), b_values)
        ba.merge(fill(QuantileSketch(), a_values))
        assert state(ab) == state(ba)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert ab.quantile(q) == ba.quantile(q)

    def test_merge_is_associative(self):
        streams = [dyadic_stream(seed, 97) for seed in (3, 4, 5)]
        left = fill(QuantileSketch(), streams[0])
        left.merge(fill(QuantileSketch(), streams[1]))
        left.merge(fill(QuantileSketch(), streams[2]))
        bc = fill(QuantileSketch(), streams[1])
        bc.merge(fill(QuantileSketch(), streams[2]))
        right = fill(QuantileSketch(), streams[0])
        right.merge(bc)
        assert state(left) == state(right)

    def test_split_equals_single_over_randomized_splits(self):
        values = dyadic_stream(6, 400)
        whole = fill(QuantileSketch(), values)
        rng = random.Random(7)
        for _ in range(5):
            cut = rng.randrange(1, len(values) - 1)
            merged = fill(QuantileSketch(), values[:cut])
            merged.merge(fill(QuantileSketch(), values[cut:]))
            assert state(merged) == state(whole)

    def test_quantile_relative_error_is_bounded_by_the_growth_factor(self):
        values = sorted(dyadic_stream(8, 1000))
        sketch = fill(QuantileSketch(), values)
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = values[round(q * (len(values) - 1))]
            estimate = sketch.quantile(q)
            assert estimate == pytest.approx(exact, rel=GROWTH - 1.0)

    def test_quantiles_clamp_to_observed_extremes(self):
        sketch = fill(QuantileSketch(), [0.25, 1024.0])
        assert sketch.quantile(0.0) >= 0.25
        assert sketch.quantile(1.0) <= 1024.0

    def test_empty_sketch_quantile_is_nan(self):
        assert math.isnan(QuantileSketch().quantile(0.5))


class TestSlidingWindowMerge:
    CONFIG = WindowConfig(bucket_s=5.0, num_buckets=12)

    def feed(self, window, values, *, t0=100.0, dt=0.75):
        for index, value in enumerate(values):
            window.observe(value, t0 + index * dt)

    def test_worker_split_merges_byte_identical_to_single(self):
        values = dyadic_stream(10, 64)
        single = SlidingWindow(self.CONFIG)
        self.feed(single, values)
        # One window saw the first half, the other the second, on the
        # same absolute time axis: the shape RollupSeries.total merges.
        parent = SlidingWindow(self.CONFIG)
        self.feed(parent, values[:31])
        worker = SlidingWindow(self.CONFIG)
        self.feed(worker, values[31:], t0=100.0 + 31 * 0.75)
        parent.merge(worker)
        now = 100.0 + len(values) * 0.75
        # Every horizon, one bucket up to the whole ring, reads the same.
        for buckets in range(1, self.CONFIG.num_buckets + 1):
            horizon = buckets * self.CONFIG.bucket_s
            assert (
                parent.totals(now, horizon_s=horizon, quantiles=(0.5, 0.95)).to_dict()
                == single.totals(now, horizon_s=horizon, quantiles=(0.5, 0.95)).to_dict()
            )

    def test_buckets_expire_past_the_horizon(self):
        window = SlidingWindow(self.CONFIG)
        window.observe(1.0, 10.0)
        window.observe(1.0, 12.0)
        horizon = self.CONFIG.horizon_s  # 60 s
        assert window.totals(15.0).count == 2
        # Advance past the horizon: the old bucket must drop out of the
        # read even though its ring slot has not been recycled yet.
        assert window.totals(10.0 + horizon + self.CONFIG.bucket_s).count == 0

    def test_stale_incoming_buckets_are_dropped_on_merge(self):
        fresh = SlidingWindow(self.CONFIG)
        fresh.observe(1.0, 1000.0)
        stale = SlidingWindow(self.CONFIG)
        # Same ring slot as epoch 200 (1000/5), one full ring earlier.
        stale.observe(1.0, 1000.0 - self.CONFIG.horizon_s)
        fresh.merge(stale)
        assert fresh.totals(1000.0).count == 1

    def test_merge_rejects_a_different_grid(self):
        window = SlidingWindow(self.CONFIG)
        with pytest.raises(ConfigurationError):
            window.merge(SlidingWindow(WindowConfig(bucket_s=1.0, num_buckets=12)))


class TestRollupSeries:
    CONFIG = WindowConfig(bucket_s=5.0, num_buckets=12)

    def test_undeclared_label_key_is_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="user_id"):
            RollupSeries("health.requests", ("user_id",), self.CONFIG)

    def test_undeclared_label_key_is_rejected_at_observation(self):
        series = RollupSeries("health.requests", ("tenant",), self.CONFIG)
        with pytest.raises(ConfigurationError, match="undeclared key"):
            series.observe(1.0, 0.0, labels={"reason": "x"})

    def test_value_budget_folds_the_tail_into_overflow(self):
        series = RollupSeries(
            "health.requests",
            ("tenant",),
            self.CONFIG,
            max_values_per_key=2,
        )
        for tenant in ("a", "b", "c", "d", "c"):
            series.observe(1.0, 50.0, labels={"tenant": tenant})
        rows = {labels["tenant"]: snap.count for labels, snap in series.rows(50.0)}
        assert rows == {"a": 1, "b": 1, OVERFLOW_VALUE: 3}
        # Totals survive the fold even though the tail lost its rows.
        assert series.total(50.0).count == 5
