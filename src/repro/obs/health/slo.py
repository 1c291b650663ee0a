"""Declarative SLOs with multi-window multi-burn-rate alerting.

An :class:`SloConfig` states an objective — availability, a latency
target, quality acceptance — as a *good-event ratio* target (e.g.
99% of requests answered, 95% of requests under 250 ms).  The error
budget is ``1 - target``; the **burn rate** over a window is the
observed error ratio divided by that budget, so burn 1.0 spends the
budget exactly at the sustainable pace and burn 14.4 exhausts a
30-day budget in ~2 days.

Alerting follows the Google SRE multi-window multi-burn-rate recipe:
each :class:`BurnRule` pairs a *long* window (sustained damage) with a
*short* window (still happening right now) and fires only when **both**
exceed the rule's factor — the long window keeps one bad minute from
paging, the short window un-pages as soon as the bleeding stops.

Every timestamp comes from the caller (ultimately the injected
:class:`~repro.serve.clock.Clock`), and the good/bad tallies are
integer bucket counts, so alert transitions are bit-deterministic
under :class:`~repro.serve.clock.VirtualClock`: replaying the same
observations reproduces the same transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ...errors import ConfigurationError
from .. import names as obs_names
from .window import SlidingWindow, WindowConfig

__all__ = ["BurnRule", "SloConfig", "DEFAULT_BURN_RULES", "SloTracker"]


def _positive_finite(value: float) -> bool:
    """``value > 0`` and neither NaN nor infinite."""
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class BurnRule:
    """One (long window, short window, factor) alerting condition."""

    long_s: float
    short_s: float
    factor: float
    severity: str = "page"
    #: Minimum events in the long window before the rule may fire, so
    #: one bad request in an idle fleet cannot page anyone.
    min_events: int = 1

    def __post_init__(self) -> None:
        if not (_positive_finite(self.long_s) and _positive_finite(self.short_s)):
            raise ConfigurationError(
                "burn windows must be positive and finite, got "
                f"{self.long_s}/{self.short_s}"
            )
        if self.short_s > self.long_s:
            raise ConfigurationError(
                f"short window {self.short_s}s exceeds long window {self.long_s}s"
            )
        if not _positive_finite(self.factor):
            raise ConfigurationError(
                f"factor must be positive and finite, got {self.factor}"
            )

    @property
    def key(self) -> str:
        """Stable id of this rule inside its SLO: ``<long>s/<short>s``."""
        return f"{self.long_s:g}s/{self.short_s:g}s"


#: The classic page/ticket pair, scaled to soak-test horizons: a fast
#: page on 5 min/1 min at 14.4x budget burn, a slower ticket on
#: 25 min/5 min at 6x.
DEFAULT_BURN_RULES = (
    BurnRule(long_s=300.0, short_s=60.0, factor=14.4, severity="page"),
    BurnRule(long_s=1500.0, short_s=300.0, factor=6.0, severity="ticket"),
)


@dataclass(frozen=True)
class SloConfig:
    """One declarative objective over a good-event ratio.

    Attributes
    ----------
    objective:
        Objective id from :data:`repro.obs.names.SLO_OBJECTIVES`.
    target:
        Good-event ratio target in (0, 1); the error budget is
        ``1 - target``.
    threshold_ms:
        For the latency objective: a sample is *good* when its value
        is at or under this many milliseconds.  ``None`` for
        objectives fed with explicit good/bad verdicts.
    rules:
        Burn-rate alert conditions evaluated over the sample stream.
    """

    objective: str
    target: float
    threshold_ms: float | None = None
    rules: tuple[BurnRule, ...] = DEFAULT_BURN_RULES

    def __post_init__(self) -> None:
        if self.objective not in obs_names.SLO_OBJECTIVES:
            raise ConfigurationError(
                f"unknown SLO objective {self.objective!r}; declared ids: "
                f"{sorted(obs_names.SLO_OBJECTIVES)}"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"target must be in (0, 1), got {self.target}"
            )
        if self.threshold_ms is not None and not _positive_finite(self.threshold_ms):
            raise ConfigurationError(
                f"threshold_ms must be positive and finite, got {self.threshold_ms}"
            )


class SloTracker:
    """Good/bad tallies plus burn-rate evaluation for one SLO."""

    __slots__ = ("config", "_total", "_bad", "_firing", "transitions")

    def __init__(self, config: SloConfig, window: WindowConfig) -> None:
        horizon = window.horizon_s
        for rule in config.rules:
            if rule.long_s > horizon:
                raise ConfigurationError(
                    f"burn rule {rule.key} of {config.objective!r} needs "
                    f"{rule.long_s:g}s of history but the window ring "
                    f"retains only {horizon:g}s"
                )
        self.config = config
        self._total = SlidingWindow(window)
        self._bad = SlidingWindow(window)
        self._firing: dict[str, bool] = {rule.key: False for rule in config.rules}
        #: Every state change, in evaluation order: dicts with ``at_s``,
        #: ``slo``, ``severity``, ``rule``, ``state``, ``burn_long``,
        #: ``burn_short``.
        self.transitions: list[dict[str, Any]] = []

    # -- feeding --------------------------------------------------------

    def sample(self, good: bool, now: float) -> None:
        """Record one good/bad event at ``now``."""
        self._total.observe(1.0, now)
        if not good:
            self._bad.observe(1.0, now)

    # -- evaluation -----------------------------------------------------

    def burn_rate(self, now: float, window_s: float) -> tuple[float, int]:
        """``(burn, total_events)`` over the trailing ``window_s``."""
        total = self._total.totals(now, horizon_s=window_s).count
        if total == 0:
            return 0.0, 0
        bad = self._bad.totals(now, horizon_s=window_s).count
        budget = 1.0 - self.config.target
        return (bad / total) / budget, total

    def evaluate(self, now: float) -> list[dict[str, Any]]:
        """Evaluate every rule at ``now``; return per-rule gauge dicts.

        State changes are appended to :attr:`transitions`, stamped with
        the caller's clock — under ``VirtualClock`` a replayed run
        reproduces identical timestamps.
        """
        gauges: list[dict[str, Any]] = []
        for rule in self.config.rules:
            burn_long, total_long = self.burn_rate(now, rule.long_s)
            burn_short, _ = self.burn_rate(now, rule.short_s)
            firing = (
                total_long >= rule.min_events
                and burn_long > rule.factor
                and burn_short > rule.factor
            )
            was_firing = self._firing[rule.key]
            if firing != was_firing:
                self._firing[rule.key] = firing
                self.transitions.append(
                    {
                        "at_s": round(now, 6),
                        "slo": self.config.objective,
                        "severity": rule.severity,
                        "rule": rule.key,
                        "state": "fired" if firing else "resolved",
                        "burn_long": round(burn_long, 6),
                        "burn_short": round(burn_short, 6),
                    }
                )
            gauges.append(
                {
                    "rule": rule.key,
                    "severity": rule.severity,
                    "factor": rule.factor,
                    "burn_long": round(burn_long, 6),
                    "burn_short": round(burn_short, 6),
                    "events_long": total_long,
                    "firing": firing,
                }
            )
        return gauges

    @property
    def firing(self) -> bool:
        """True while any rule of this SLO is in the fired state."""
        return any(self._firing.values())
