"""Bounded-cardinality dimensional rollups over sliding windows.

A :class:`RollupSeries` is one named metric (``health.requests``,
``health.calib_offset_db``, ...) broken down by a *declared* tuple of
label keys.  Two disciplines keep the fleet dashboard from melting
down the way unbounded label sets melt down real Prometheus servers:

- **Closed key vocabulary.**  Every label key must come from
  :data:`repro.obs.names.HEALTH_LABEL_KEYS`.  This is enforced here at
  runtime and by the QA012 lint rule at every call site, so a typo'd
  or invented dimension fails review, not production.
- **Per-key value budget.**  Label *values* are caller data (tenant
  ids, device models); each key admits at most
  ``max_values_per_key`` distinct values, after which new values
  collapse into the :data:`OVERFLOW_VALUE` bucket.  Totals stay right;
  only the long tail loses its own row.

The budget admits values in observation order, so it holds only while
one series sees every observation: the executor and the serve loop
record in the parent, where a pooled run observes in the same order
as a serial one.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ...errors import ConfigurationError
from ..names import HEALTH_LABEL_KEYS
from .window import SlidingWindow, WindowConfig, WindowSnapshot

__all__ = ["OVERFLOW_VALUE", "RollupSeries"]

#: Label value absorbing the tail past the per-key cardinality budget.
OVERFLOW_VALUE = "__other__"


class RollupSeries:
    """One metric's windows, keyed by a bounded label-value tuple."""

    __slots__ = (
        "name",
        "label_keys",
        "window_config",
        "max_values_per_key",
        "_rows",
        "_seen_values",
    )

    def __init__(
        self,
        name: str,
        label_keys: tuple[str, ...],
        window_config: WindowConfig,
        *,
        max_values_per_key: int = 16,
    ) -> None:
        undeclared = [key for key in label_keys if key not in HEALTH_LABEL_KEYS]
        if undeclared:
            raise ConfigurationError(
                f"series {name!r} uses undeclared label key(s) "
                f"{undeclared}; the closed vocabulary is "
                f"{sorted(HEALTH_LABEL_KEYS)} (obs.names.HEALTH_LABEL_KEYS)"
            )
        if max_values_per_key < 1:
            raise ConfigurationError(
                f"max_values_per_key must be >= 1, got {max_values_per_key}"
            )
        self.name = name
        self.label_keys = tuple(label_keys)
        self.window_config = window_config
        self.max_values_per_key = max_values_per_key
        self._rows: dict[tuple[str, ...], SlidingWindow] = {}
        self._seen_values: dict[str, set[str]] = {key: set() for key in label_keys}

    # -- writing --------------------------------------------------------

    def _bound_value(self, key: str, value: str) -> str:
        """Admit ``value`` under ``key``'s budget, or fold to overflow."""
        seen = self._seen_values[key]
        if value in seen:
            return value
        if len(seen) < self.max_values_per_key:
            seen.add(value)
            return value
        return OVERFLOW_VALUE

    def _row_key(self, labels: Mapping[str, str] | None) -> tuple[str, ...]:
        labels = labels or {}
        for key in labels:
            if key not in self.label_keys:
                raise ConfigurationError(
                    f"series {self.name!r} declares labels "
                    f"{self.label_keys}; got undeclared key {key!r}"
                )
        return tuple(
            self._bound_value(key, str(labels.get(key, "")))
            for key in self.label_keys
        )

    def observe(
        self,
        value: float,
        now: float,
        *,
        labels: Mapping[str, str] | None = None,
        weight: int = 1,
    ) -> None:
        """Record one observation under its (bounded) label tuple."""
        key = self._row_key(labels)
        window = self._rows.get(key)
        if window is None:
            window = self._rows[key] = SlidingWindow(self.window_config)
        window.observe(value, now, weight)

    # -- reading --------------------------------------------------------

    def rows(
        self,
        now: float,
        *,
        horizon_s: float | None = None,
        quantiles: tuple[float, ...] = (),
    ) -> Iterator[tuple[dict[str, str], WindowSnapshot]]:
        """Yield ``(labels, snapshot)`` per live row, sorted by labels."""
        for key in sorted(self._rows):
            snapshot = self._rows[key].totals(
                now, horizon_s=horizon_s, quantiles=quantiles
            )
            if snapshot.count == 0:
                continue
            yield dict(zip(self.label_keys, key)), snapshot

    def total(self, now: float, *, horizon_s: float | None = None) -> WindowSnapshot:
        """Label-blind aggregate across every row."""
        merged = SlidingWindow(self.window_config)
        for window in self._rows.values():
            merged.merge(window)
        return merged.totals(now, horizon_s=horizon_s)
