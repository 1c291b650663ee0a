"""Merge algebra and error bound of the one streaming distribution sketch.

Health windows answer a horizon by merging their buckets' sketches, so
a stream split in parts and merged back must equal the same stream fed
to one sketch.  Bucket counts are integers, so the equality is bit-exact
under any split.  Values are dyadic rationals (multiples of 1/64), so
float summation is associative and the moments compare with ``==``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.obs.sketch import GROWTH, QuantileSketch


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
