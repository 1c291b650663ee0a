"""Mergeable sliding-window aggregator: a ring of time buckets.

A :class:`SlidingWindow` covers the trailing ``bucket_s * num_buckets``
seconds with fixed-width buckets, each an epoch plus one mergeable
:class:`~repro.obs.health.sketch.QuantileSketch`, whose exact
count/sum/min/max moments answer counter series and whose buckets
answer quantiles for distribution series.  Buckets are aligned to the
absolute epoch grid (``bucket index = floor(now / bucket_s)``), which
is what makes any two windows on one grid mergeable (a rollup's
label-blind total merges its rows' windows): the grid is a pure
function of the injected clock, not of either window's construction
time.

Expiry is lazy: the ring slot for a new epoch gets a fresh bucket, and
reads simply skip buckets whose epoch has fallen out of the horizon.
Nothing here reads a wall clock — every operation takes ``now`` from
the caller, so the whole tier runs deterministically under
:class:`~repro.serve.clock.VirtualClock`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ...errors import ConfigurationError
from .sketch import QuantileSketch

__all__ = ["WindowConfig", "WindowSnapshot", "SlidingWindow"]


@dataclass(frozen=True)
class WindowConfig:
    """Bucket grid of a sliding window.

    The defaults — 5 s buckets, 360 of them — retain 30 minutes, enough
    to cover the default long burn-rate window with one ring.
    """

    bucket_s: float = 5.0
    num_buckets: int = 360

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bucket_s) and self.bucket_s > 0.0):
            raise ConfigurationError(
                f"bucket_s must be positive and finite, got {self.bucket_s}"
            )
        if self.num_buckets < 1:
            raise ConfigurationError(
                f"num_buckets must be >= 1, got {self.num_buckets}"
            )

    @property
    def horizon_s(self) -> float:
        """Maximum lookback the ring can answer."""
        return self.bucket_s * self.num_buckets


@dataclass(frozen=True)
class WindowSnapshot:
    """Aggregates over one trailing horizon, plus quantile estimates."""

    count: int
    total: float
    vmin: float | None
    vmax: float | None
    rate_per_s: float
    quantiles: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form with stable float rounding."""
        payload: dict[str, Any] = {
            "count": self.count,
            "total": round(self.total, 6),
            "min": None if self.vmin is None else round(self.vmin, 6),
            "max": None if self.vmax is None else round(self.vmax, 6),
            "rate_per_s": round(self.rate_per_s, 6),
        }
        if self.quantiles:
            payload["quantiles"] = {
                key: round(value, 6) for key, value in self.quantiles.items()
            }
        return payload


class SlidingWindow:
    """Ring of epoch-aligned ``(epoch, sketch)`` buckets; observe / merge / read.

    ``config`` is the bucket grid shared by every window that will
    ever be merged into this one (merging across grids is a
    :class:`~repro.errors.ConfigurationError`).
    """

    __slots__ = ("config", "_ring")

    def __init__(self, config: WindowConfig | None = None) -> None:
        self.config = config or WindowConfig()
        self._ring: list[tuple[int, QuantileSketch] | None] = [None] * self.config.num_buckets

    # -- writing --------------------------------------------------------

    def _epoch(self, now: float) -> int:
        return int(now // self.config.bucket_s)

    def _sketch_for(self, epoch: int) -> QuantileSketch:
        """The sketch of ``epoch``, replacing its slot's resident if needed."""
        slot = epoch % self.config.num_buckets
        bucket = self._ring[slot]
        if bucket is None or bucket[0] != epoch:
            bucket = self._ring[slot] = (epoch, QuantileSketch())
        return bucket[1]

    def observe(self, value: float, now: float, weight: int = 1) -> None:
        """Record ``value`` (``weight`` times) in the bucket of ``now``."""
        if weight > 0:
            self._sketch_for(self._epoch(now)).observe(value, weight)

    # -- merging --------------------------------------------------------

    def _merge_bucket(self, epoch: int, sketch: QuantileSketch) -> None:
        """Fold one incoming bucket in, epoch-wise.

        An incoming bucket older than the one its slot currently holds
        is expired data and is dropped; a *newer* one replaces the
        stale resident.
        """
        resident = self._ring[epoch % self.config.num_buckets]
        if sketch.count and (resident is None or resident[0] <= epoch):
            self._sketch_for(epoch).merge(sketch)

    def merge(self, other: "SlidingWindow") -> None:
        """Fold another window's live buckets into this ring."""
        if other.config != self.config:
            raise ConfigurationError(
                "cannot merge windows with different configs: "
                f"{self.config} vs {other.config}"
            )
        for bucket in other._ring:
            if bucket is not None:
                self._merge_bucket(*bucket)

    # -- reading --------------------------------------------------------

    def _live_sketches(self, now: float, horizon_s: float | None) -> list[QuantileSketch]:
        horizon = self.config.horizon_s if horizon_s is None else horizon_s
        current = self._epoch(now)
        span = max(1, min(self.config.num_buckets, math.ceil(horizon / self.config.bucket_s)))
        oldest = current - span + 1
        return [
            sketch
            for epoch, sketch in filter(None, self._ring)
            if sketch.count > 0 and oldest <= epoch <= current
        ]

    def totals(
        self,
        now: float,
        *,
        horizon_s: float | None = None,
        quantiles: tuple[float, ...] = (),
    ) -> WindowSnapshot:
        """Aggregate the trailing ``horizon_s`` (full ring by default)."""
        live = self._live_sketches(now, horizon_s)
        count = sum(sketch.count for sketch in live)
        total = sum(sketch.total for sketch in live)
        horizon = self.config.horizon_s if horizon_s is None else horizon_s
        qvals: dict[str, float] = {}
        if quantiles and count:
            merged = QuantileSketch()
            for sketch in live:
                merged.merge(sketch)
            qvals = {f"p{q * 100:g}": merged.quantile(q) for q in quantiles}
        return WindowSnapshot(
            count=count,
            total=total,
            vmin=min((s.vmin for s in live), default=None),
            vmax=max((s.vmax for s in live), default=None),
            rate_per_s=count / horizon if horizon > 0 else 0.0,
            quantiles=qvals,
        )
