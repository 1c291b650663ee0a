"""The fleet-health monitor: ambient, parent-side, zero-cost when off.

:class:`HealthMonitor` is the live counterpart of the tracer: hooks in
the executor and the serve loop feed it observations; it aggregates
them into bounded-label rollups over sliding windows, evaluates the
configured SLOs, and renders snapshots as JSON and Prometheus text.

The ambient pattern mirrors :mod:`repro.obs.tracer`:
:func:`current_health` returns the shared :data:`NULL_HEALTH` unless a
run opted in with :func:`use_health`, so permanently compiled-in hooks
cost one contextvar read and a no-op call.

Every hook runs in the parent.  A pool worker records nothing here: the
executor records each outcome's health rows (the per-device-model rake
taps and calibration offset included) from its
:class:`~repro.core.results.ProcessedRecording` when the result comes
home, so a pooled run admits label values in the same order as a
serial one and keeps the same per-key budget.

Every ``now`` ultimately comes from an injected clock (the serve
tier passes ``Clock.now``), so snapshots, burn rates, and alert
transitions are deterministic under
:class:`~repro.serve.clock.VirtualClock`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Union

from ...errors import ConfigurationError
from .. import names as obs_names
from ..export import prom_labels, prom_name, summary_samples
from ..tracer import current_tracer
from .rollup import RollupSeries
from .slo import SloConfig, SloTracker
from .window import WindowConfig

__all__ = [
    "SeriesSpec",
    "HealthConfig",
    "HealthMonitor",
    "NullHealthMonitor",
    "NULL_HEALTH",
    "DEFAULT_SERIES",
    "DEFAULT_SLOS",
    "current_health",
    "use_health",
]


@dataclass(frozen=True)
class SeriesSpec:
    """Declaration of one health series: name, dimensions, kind."""

    name: str
    labels: tuple[str, ...] = ()
    kind: str = "counter"

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "distribution"):
            raise ConfigurationError(
                f"kind must be 'counter' or 'distribution', got {self.kind!r}"
            )


#: The canonical series set; names and label tuples match the
#: registry documentation in :mod:`repro.obs.names`.
DEFAULT_SERIES = (
    SeriesSpec(obs_names.HEALTH_SCREENINGS, ("verdict", "reason"), "counter"),
    SeriesSpec(obs_names.HEALTH_REQUESTS, ("tenant", "outcome"), "counter"),
    SeriesSpec(obs_names.HEALTH_RAKE_TAPS, ("device_model",), "counter"),
    SeriesSpec(obs_names.HEALTH_RECORDING_MS, (), "distribution"),
    SeriesSpec(obs_names.HEALTH_REQUEST_MS, ("tenant",), "distribution"),
    SeriesSpec(obs_names.HEALTH_CALIB_OFFSET_DB, ("device_model",), "distribution"),
)

#: Default objectives: three nines of availability, 95% of requests
#: under 30 s, 90% of screenings accepted.  Deployments tighten these
#: per tenant class; the soak gate overrides the latency threshold.
DEFAULT_SLOS = (
    SloConfig(objective=obs_names.SLO_AVAILABILITY, target=0.999),
    SloConfig(objective=obs_names.SLO_LATENCY, target=0.95, threshold_ms=30_000.0),
    SloConfig(objective=obs_names.SLO_QUALITY, target=0.9),
)


@dataclass(frozen=True)
class HealthConfig:
    """Everything a monitor needs: window grid, series, SLOs, label budget."""

    window: WindowConfig = field(default_factory=WindowConfig)
    series: tuple[SeriesSpec, ...] = DEFAULT_SERIES
    slos: tuple[SloConfig, ...] = DEFAULT_SLOS
    max_values_per_key: int = 16
    quantiles: tuple[float, ...] = (0.5, 0.95, 0.99)


class HealthMonitor:
    """Aggregates health observations; renders snapshots; tracks SLOs."""

    #: Real monitors record; the null monitor reports ``False`` so hook
    #: code can skip building label dicts when nobody is watching.
    enabled: bool = True

    def __init__(
        self,
        config: HealthConfig | None = None,
        *,
        now: Callable[[], float] | None = None,
    ) -> None:
        self.config = config or HealthConfig()
        self.now: Callable[[], float] = now if now is not None else time.monotonic
        self._series: dict[str, RollupSeries] = {}
        for spec in self.config.series:
            if spec.name in self._series:
                raise ConfigurationError(f"duplicate series {spec.name!r}")
            self._series[spec.name] = RollupSeries(
                spec.name,
                spec.labels,
                self.config.window,
                max_values_per_key=self.config.max_values_per_key,
            )
        self._kinds = {spec.name: spec.kind for spec in self.config.series}
        self._slos: dict[str, SloTracker] = {}
        for slo in self.config.slos:
            if slo.objective in self._slos:
                raise ConfigurationError(f"duplicate SLO {slo.objective!r}")
            self._slos[slo.objective] = SloTracker(slo, self.config.window)
        self._seq = 0

    # -- recording ------------------------------------------------------

    def _resolve(self, name: str, kind: str) -> RollupSeries | None:
        """The series behind ``name``, or ``None`` when not collected.

        Hooks feed unconditionally; the *config* decides which series
        are collected (e.g. the virtual-clock loadgen drops the
        wall-time ``health.recording_ms`` series so replays stay
        bit-identical).  A name of the wrong kind is still a
        configuration error — that's a code bug, not a config choice.
        """
        series = self._series.get(name)
        if series is None:
            return None
        if self._kinds[name] != kind:
            raise ConfigurationError(
                f"series {name!r} is a {self._kinds[name]}, not a {kind}"
            )
        return series

    def increment(
        self,
        name: str,
        value: int = 1,
        *,
        labels: Mapping[str, str] | None = None,
        now: float | None = None,
    ) -> None:
        """Bump a counter series by ``value`` under ``labels``."""
        series = self._resolve(name, "counter")
        if series is None:
            return
        series.observe(
            1.0,
            self.now() if now is None else now,
            labels=labels,
            weight=int(value),
        )

    def observe(
        self,
        name: str,
        value: float,
        *,
        labels: Mapping[str, str] | None = None,
        now: float | None = None,
    ) -> None:
        """Record one sample into a distribution series."""
        series = self._resolve(name, "distribution")
        if series is None:
            return
        series.observe(value, self.now() if now is None else now, labels=labels)

    def slo_sample(
        self,
        objective: str,
        *,
        good: bool | None = None,
        value_ms: float | None = None,
        now: float | None = None,
    ) -> None:
        """Feed one good/bad event to an objective.

        Explicit ``good`` wins; otherwise the objective's
        ``threshold_ms`` classifies ``value_ms``.  Objectives absent
        from the config are ignored — hooks feed unconditionally.
        """
        tracker = self._slos.get(objective)
        if tracker is None:
            return
        if good is None:
            threshold = tracker.config.threshold_ms
            if threshold is None or value_ms is None:
                raise ConfigurationError(
                    f"SLO {objective!r} needs an explicit good= verdict "
                    "(no threshold_ms configured)"
                )
            good = value_ms <= threshold
        tracker.sample(good, self.now() if now is None else now)

    # -- evaluation / rendering -----------------------------------------

    def evaluate(self, now: float | None = None) -> list[dict[str, Any]]:
        """Evaluate every SLO; returns per-objective gauge dicts."""
        at = self.now() if now is None else now
        out = []
        for objective in sorted(self._slos):
            tracker = self._slos[objective]
            out.append(
                {
                    "objective": objective,
                    "target": tracker.config.target,
                    "threshold_ms": tracker.config.threshold_ms,
                    "rules": tracker.evaluate(at),
                    "firing": tracker.firing,
                }
            )
        return out

    @property
    def transitions(self) -> list[dict[str, Any]]:
        """Every alert transition so far, in evaluation order."""
        out: list[dict[str, Any]] = []
        for objective in sorted(self._slos):
            out.extend(self._slos[objective].transitions)
        out.sort(key=lambda t: (t["at_s"], t["slo"], t["rule"]))
        return out

    def active_alerts(self) -> list[dict[str, str]]:
        """Currently firing (slo, severity, rule) triples."""
        alerts = []
        for objective in sorted(self._slos):
            tracker = self._slos[objective]
            for rule in tracker.config.rules:
                if tracker._firing[rule.key]:
                    alerts.append(
                        {
                            "slo": objective,
                            "severity": rule.severity,
                            "rule": rule.key,
                        }
                    )
        return alerts

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        """One JSON-safe health snapshot: series rows, SLOs, alerts.

        Evaluates the SLOs as a side effect, so alert transitions are
        stamped with this snapshot's clock reading.
        """
        at = self.now() if now is None else now
        self._seq += 1
        with current_tracer().span(obs_names.SPAN_HEALTH_SNAPSHOT) as span:
            series: dict[str, list[dict[str, Any]]] = {}
            for name in sorted(self._series):
                rows = [
                    {"labels": labels, **snap.to_dict()}
                    for labels, snap in self._series[name].rows(
                        at,
                        quantiles=self.config.quantiles
                        if self._kinds[name] == "distribution"
                        else (),
                    )
                ]
                if rows:
                    series[name] = rows
            slos = self.evaluate(at)
            alerts = self.active_alerts()
            span.set("series", len(series))
            span.set("alerts", len(alerts))
        return {
            "seq": self._seq,
            "at_s": round(at, 6),
            "series": series,
            "slos": slos,
            "alerts_active": alerts,
            "transitions": self.transitions,
        }

    def prometheus(self, now: float | None = None) -> str:
        """Prometheus text-format rendering with rollup label dimensions.

        Names, labels and summary lines come from the shared writer in
        :mod:`repro.obs.export`.
        """
        at = self.now() if now is None else now
        lines: list[str] = []
        for name in sorted(self._series):
            series = self._series[name]
            if self._kinds[name] == "counter":
                metric = prom_name(name) + "_total"
                lines.append(f"# TYPE {metric} counter")
                for labels, snap in series.rows(at):
                    lines.append(f"{metric}{prom_labels(labels)} {snap.count}")
                continue
            metric = prom_name(name)
            lines.append(f"# TYPE {metric} summary")
            for labels, snap in series.rows(at, quantiles=self.config.quantiles):
                quantiles = dict(zip(self.config.quantiles, snap.quantiles.values()))
                lines.extend(
                    summary_samples(metric, labels, quantiles, snap.count, snap.total)
                )
        lines.append("# TYPE earsonar_slo_burn_rate gauge")
        lines.append("# TYPE earsonar_slo_alert_firing gauge")
        for entry in self.evaluate(at):
            for rule in entry["rules"]:
                labels = {
                    "slo": entry["objective"],
                    "severity": rule["severity"],
                    "rule": rule["rule"],
                }
                lines.append(
                    f"earsonar_slo_burn_rate{prom_labels({**labels, 'window': 'long'})}"
                    f" {rule['burn_long']:.6f}"
                )
                lines.append(
                    f"earsonar_slo_burn_rate{prom_labels({**labels, 'window': 'short'})}"
                    f" {rule['burn_short']:.6f}"
                )
                lines.append(
                    f"earsonar_slo_alert_firing{prom_labels(labels)}"
                    f" {1 if rule['firing'] else 0}"
                )
        return "\n".join(lines) + "\n"


class NullHealthMonitor:
    """Disabled monitor: every hook is a stateless no-op."""

    __slots__ = ()

    #: Always ``False``.
    enabled: bool = False

    def increment(self, name: str, value: int = 1, *, labels: Any = None, now: Any = None) -> None:
        """Discard the observation."""

    def observe(self, name: str, value: float, *, labels: Any = None, now: Any = None) -> None:
        """Discard the observation."""

    def slo_sample(self, objective: str, *, good: Any = None, value_ms: Any = None, now: Any = None) -> None:
        """Discard the sample."""

    def snapshot(self, now: Any = None) -> dict[str, Any]:
        """Always empty."""
        return {}

    def prometheus(self, now: Any = None) -> str:
        """Always empty."""
        return ""

    @property
    def transitions(self) -> tuple:
        """Always empty."""
        return ()

    def active_alerts(self) -> list:
        """Always empty."""
        return []


#: Process-wide disabled monitor; the ambient default.
NULL_HEALTH = NullHealthMonitor()

AnyHealth = Union[HealthMonitor, NullHealthMonitor]

_CURRENT_HEALTH: ContextVar[AnyHealth] = ContextVar(
    "repro_obs_health", default=NULL_HEALTH
)


def current_health() -> AnyHealth:
    """The ambient monitor (the shared :data:`NULL_HEALTH` by default)."""
    return _CURRENT_HEALTH.get()


@contextmanager
def use_health(monitor: AnyHealth) -> Iterator[AnyHealth]:
    """Make ``monitor`` ambient for the duration of the ``with`` block."""
    token = _CURRENT_HEALTH.set(monitor)
    try:
        yield monitor
    finally:
        _CURRENT_HEALTH.reset(token)
