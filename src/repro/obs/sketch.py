"""Mergeable exponential-bucket quantile sketch: the one streaming distribution.

Every streaming latency or drift distribution in the repo is one of
these: the runtime's :class:`~repro.runtime.metrics.Histogram` holds
one, and every fleet-health window bucket is an epoch plus one.  A
window answers a horizon by combining its live buckets, so sketches
must combine without loss.  Exact reservoirs don't merge — two reservoirs
concatenated are no longer a uniform sample — so the sketch is the
standard mergeable alternative: a histogram whose bucket boundaries
grow geometrically, giving a bounded *relative* error on every
quantile estimate.

There is one bucket grid (:data:`GROWTH`, :data:`MIN_VALUE`,
:data:`MAX_INDEX`), so any two sketches merge.  Properties that the
tests pin down:

- **Mergeable, exactly.**  Bucket counts are integers; ``merge`` is a
  bucket-wise add, so it is commutative and associative to the bit.
  Any partition of a value stream across producers yields the same
  merged sketch as a single-producer run.
- **Bounded relative error.**  A value lands in the bucket whose
  geometric span covers it; quantiles are answered with the bucket's
  geometric midpoint, so for magnitudes at or above :data:`MIN_VALUE`
  the estimate is within a factor ``sqrt(GROWTH)`` (about 7.3%) of the
  order statistic at rank ``floor(q * (count - 1))``.
- **Bounded memory.**  Indices clamp to ``[-MAX_INDEX, MAX_INDEX]``,
  so a sketch never holds more than ``2 * MAX_INDEX + 1`` buckets.
- **Signed.**  Calibration offsets are dB values around zero; negative
  magnitudes mirror into negative bucket indices, and values inside
  ``(-MIN_VALUE, +MIN_VALUE)`` share the exact-zero bucket.

The exact ``count`` / ``total`` / ``min`` / ``max`` moments ride along
so counts, rates and means never pay the quantization error.
"""

from __future__ import annotations

import math

__all__ = ["GROWTH", "MIN_VALUE", "MAX_INDEX", "QuantileSketch"]

#: Ratio between consecutive bucket boundaries.
GROWTH = 1.15
#: Magnitudes below this share the zero bucket; the first boundary.
MIN_VALUE = 1e-3
#: Index clamp: 256 buckets at growth 1.15 span about 15 decades per sign.
MAX_INDEX = 256

_LOG_GROWTH = math.log(GROWTH)

#: Bucket index for values whose magnitude is below ``MIN_VALUE``.
_ZERO_BUCKET = 0


class QuantileSketch:
    """Signed exponential-bucket histogram with exact moments."""

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        #: Sparse bucket table: signed index -> integer count.
        self.buckets: dict[int, int] = {}

    # -- recording ------------------------------------------------------

    @staticmethod
    def _index(value: float) -> int:
        magnitude = abs(value)
        if magnitude < MIN_VALUE:
            return _ZERO_BUCKET
        # Bucket k (k >= 1) covers [MIN_VALUE * g**(k-1), MIN_VALUE * g**k).
        index = 1 + int(math.log(magnitude / MIN_VALUE) / _LOG_GROWTH)
        index = min(index, MAX_INDEX)
        return index if value >= 0.0 else -index

    def observe(self, value: float, weight: int = 1) -> None:
        """Record ``value`` with an integer multiplicity."""
        if weight <= 0:
            return
        self.count += weight
        self.total += value * weight
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + weight

    # -- querying -------------------------------------------------------

    @staticmethod
    def _bucket_value(index: int) -> float:
        """Representative value of one bucket: its geometric midpoint."""
        if index == _ZERO_BUCKET:
            return 0.0
        midpoint = MIN_VALUE * GROWTH ** (abs(index) - 1) * math.sqrt(GROWTH)
        return midpoint if index > 0 else -midpoint

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]); NaN when empty.

        The answer is clamped into the exact observed ``[min, max]``
        envelope, so degenerate streams (one value repeated) come back
        exact instead of quantized.
        """
        if self.count == 0:
            return math.nan
        q = min(max(q, 0.0), 1.0)
        rank = q * (self.count - 1)
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen > rank:
                estimate = self._bucket_value(index)
                return min(max(estimate, self.vmin), self.vmax)
        return self.vmax

    @property
    def mean(self) -> float:
        """Exact mean of the observed values; NaN when empty."""
        return self.total / self.count if self.count else math.nan

    # -- merge ------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (bucket-wise integer add)."""
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        for index, weight in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + weight

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(count={self.count}, mean={self.mean:.4g}, "
            f"buckets={len(self.buckets)})"
        )
