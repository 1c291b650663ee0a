"""Fleet-health observability: windowed aggregates, rollups, SLOs.

The health tier answers "is the fleet OK?" the way the tracer answers
"what happened in this run?": hooks in the executor and the serve loop
feed an ambient :class:`HealthMonitor`, which rolls the stream up into
bounded-cardinality dimensional windows, watches three SLOs with
multi-window multi-burn-rate alerting, and renders snapshots as JSON
or Prometheus text.

- **Windows.**  A window is a ring of :data:`NUM_BUCKETS` buckets of
  :data:`BUCKET_S` seconds (30 minutes in all), each an epoch plus one
  :class:`~repro.obs.sketch.QuantileSketch`, whose exact
  count/sum/min/max moments answer counter series and whose buckets
  answer quantiles for distribution series.  Buckets sit on the
  absolute epoch grid (``epoch = floor(now / BUCKET_S)``), a pure
  function of the injected clock.  Expiry is lazy: a ring slot gets a
  fresh bucket when a new epoch reaches it, and reads skip buckets
  whose epoch has left the horizon.
- **Rollups.**  Each series in :data:`SERIES_LABELS` is broken down by
  its declared label keys, all from the closed vocabulary
  :data:`repro.obs.names.HEALTH_LABEL_KEYS` (QA012 checks every call
  site); its kind comes from :mod:`repro.obs.names`.  Label *values*
  are caller data (tenant ids, device models): each key admits at most
  :data:`MAX_VALUES_PER_KEY` of them, in observation order, and later
  ones fold into :data:`OVERFLOW_VALUE`.  Totals stay right; only the
  long tail loses its own row.
- **SLOs.**  Each objective in :data:`SLO_TARGETS` is a good-event
  ratio target; its error budget is ``1 - target``, and the burn rate
  over a window is the observed error ratio divided by that budget.
  Each of :data:`BURN_RULES` pairs a long window (sustained damage)
  with a short one (still happening) and fires only while both exceed
  its factor, the Google SRE multi-window multi-burn-rate recipe.

Every hook runs in the parent.  A pool worker records nothing here: the
executor records each outcome's health rows from its
:class:`~repro.core.results.ProcessedRecording` when the result comes
home, so a pooled run admits label values in the same order as a
serial one and keeps the same per-key budget.  Every ``now`` comes from
the caller (the serve tier passes ``Clock.now``) and the good/bad
tallies are integer bucket counts, so snapshots, burn rates and alert
transitions replay bit for bit under
:class:`~repro.serve.clock.VirtualClock`.

The ambient pattern mirrors :mod:`repro.obs.tracer`:
:func:`current_health` returns the shared :data:`NULL_HEALTH` unless a
run opted in with :func:`use_health`, so permanently compiled-in hooks
cost one contextvar read and a no-op call.  See ``DESIGN.md`` ("Fleet
health") for the burn-rate math.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Union

from ..errors import ConfigurationError
from . import names as obs_names
from .export import prom_labels, prom_name, summary_samples
from .sketch import QuantileSketch
from .tracer import current_tracer

__all__ = [
    "HealthMonitor",
    "LATENCY_SLO_MS",
    "NullHealthMonitor",
    "NULL_HEALTH",
    "OVERFLOW_VALUE",
    "SERIES_LABELS",
    "WindowSnapshot",
    "current_health",
    "use_health",
]

#: Width of one window bucket, in clock seconds.
BUCKET_S = 5.0
#: Buckets per window: 360 of 5 s retain 30 minutes, enough for the
#: ticket rule's 25-minute long window.
NUM_BUCKETS = 360
#: Lookback of a whole window.
HORIZON_S = BUCKET_S * NUM_BUCKETS
#: Distinct values each label key admits before folding the rest.
MAX_VALUES_PER_KEY = 16
#: Label value absorbing the tail past the per-key budget.
OVERFLOW_VALUE = "__other__"
#: Quantiles every distribution row reports.
QUANTILES = (0.5, 0.95, 0.99)
#: Default latency objective threshold: a request answered within this
#: many milliseconds is good.
LATENCY_SLO_MS = 30_000.0

#: Label keys of every health series, the one table of them.  The
#: series' kinds are :data:`repro.obs.names.HEALTH_COUNTER_SERIES` and
#: :data:`~repro.obs.names.HEALTH_DISTRIBUTION_SERIES`.
SERIES_LABELS: dict[str, tuple[str, ...]] = {
    obs_names.HEALTH_SCREENINGS: ("verdict", "reason"),
    obs_names.HEALTH_REQUESTS: ("tenant", "outcome"),
    obs_names.HEALTH_RAKE_TAPS: ("device_model",),
    obs_names.HEALTH_RECORDING_MS: (),
    obs_names.HEALTH_REQUEST_MS: ("tenant",),
    obs_names.HEALTH_CALIB_OFFSET_DB: ("device_model",),
}

#: Good-event ratio target per objective: three nines of availability,
#: 95% of requests under the latency threshold, 90% of screenings
#: accepted.
SLO_TARGETS = {
    obs_names.SLO_AVAILABILITY: 0.999,
    obs_names.SLO_LATENCY: 0.95,
    obs_names.SLO_QUALITY: 0.9,
}

#: ``(severity, long_s, short_s, factor)`` of each burn-rate rule: the
#: classic page/ticket pair scaled to soak horizons, a page on
#: 5 min/1 min at 14.4x budget burn and a ticket on 25 min/5 min at 6x.
BURN_RULES = (
    ("page", 300.0, 60.0, 14.4),
    ("ticket", 1500.0, 300.0, 6.0),
)


def _rule_key(long_s: float, short_s: float) -> str:
    """Stable id of a rule inside its SLO: ``<long>s/<short>s``."""
    return f"{long_s:g}s/{short_s:g}s"


@dataclass(frozen=True)
class WindowSnapshot:
    """Aggregates over one window, plus quantile estimates."""

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


class _Window:
    """Ring of epoch-aligned ``(epoch, sketch)`` buckets."""

    __slots__ = ("_ring",)

    def __init__(self) -> None:
        self._ring: list[tuple[int, QuantileSketch] | None] = [None] * NUM_BUCKETS

    def observe(self, value: float, now: float, weight: int = 1) -> None:
        """Record ``value`` (``weight`` times) in the bucket of ``now``."""
        if weight <= 0:
            return
        epoch = int(now // BUCKET_S)
        slot = epoch % NUM_BUCKETS
        bucket = self._ring[slot]
        if bucket is None or bucket[0] != epoch:
            bucket = self._ring[slot] = (epoch, QuantileSketch())
        bucket[1].observe(value, weight)

    def live(self, now: float, horizon_s: float = HORIZON_S) -> list[QuantileSketch]:
        """The non-empty sketches of the trailing ``horizon_s``."""
        current = int(now // BUCKET_S)
        span = max(1, min(NUM_BUCKETS, math.ceil(horizon_s / BUCKET_S)))
        oldest = current - span + 1
        return [
            sketch
            for epoch, sketch in filter(None, self._ring)
            if sketch.count > 0 and oldest <= epoch <= current
        ]

    def count(self, now: float, horizon_s: float) -> int:
        """Observations in the trailing ``horizon_s``."""
        return sum(sketch.count for sketch in self.live(now, horizon_s))

    def totals(self, now: float, quantiles: tuple[float, ...] = ()) -> WindowSnapshot:
        """Aggregate the whole window."""
        live = self.live(now)
        count = sum(sketch.count for sketch in live)
        qvals: dict[str, float] = {}
        if quantiles and count:
            merged = QuantileSketch()
            for sketch in live:
                merged.merge(sketch)
            qvals = {f"p{q * 100:g}": merged.quantile(q) for q in quantiles}
        return WindowSnapshot(
            count=count,
            total=sum(sketch.total for sketch in live),
            vmin=min((s.vmin for s in live), default=None),
            vmax=max((s.vmax for s in live), default=None),
            rate_per_s=count / HORIZON_S,
            quantiles=qvals,
        )


class _Rollup:
    """One series' windows, keyed by a bounded label-value tuple."""

    __slots__ = ("name", "label_keys", "kind", "quantiles", "_rows", "_seen_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.label_keys = SERIES_LABELS[name]
        distribution = name in obs_names.HEALTH_DISTRIBUTION_SERIES
        self.kind = "distribution" if distribution else "counter"
        self.quantiles: tuple[float, ...] = QUANTILES if distribution else ()
        self._rows: dict[tuple[str, ...], _Window] = {}
        self._seen_values: dict[str, set[str]] = {key: set() for key in self.label_keys}

    def _bound_value(self, key: str, value: str) -> str:
        """Admit ``value`` under ``key``'s budget, or fold to overflow."""
        seen = self._seen_values[key]
        if value in seen:
            return value
        if len(seen) < MAX_VALUES_PER_KEY:
            seen.add(value)
            return value
        return OVERFLOW_VALUE

    def observe(
        self,
        value: float,
        now: float,
        labels: Mapping[str, str] | None,
        weight: int = 1,
    ) -> None:
        """Record one observation under its (bounded) label tuple."""
        labels = labels or {}
        for key in labels:
            if key not in self.label_keys:
                raise ConfigurationError(
                    f"series {self.name!r} declares labels "
                    f"{self.label_keys}; got undeclared key {key!r}"
                )
        row = tuple(
            self._bound_value(key, str(labels.get(key, ""))) for key in self.label_keys
        )
        window = self._rows.get(row)
        if window is None:
            window = self._rows[row] = _Window()
        window.observe(value, now, weight)

    def rows(self, now: float) -> Iterator[tuple[dict[str, str], WindowSnapshot]]:
        """Yield ``(labels, snapshot)`` per live row, sorted by labels."""
        for key in sorted(self._rows):
            snapshot = self._rows[key].totals(now, self.quantiles)
            if snapshot.count:
                yield dict(zip(self.label_keys, key)), snapshot


class _Slo:
    """Good/bad tallies plus burn-rate evaluation for one objective."""

    __slots__ = ("objective", "target", "threshold_ms", "_total", "_bad", "firing", "transitions")

    def __init__(self, objective: str, threshold_ms: float | None) -> None:
        self.objective = objective
        self.target = SLO_TARGETS[objective]
        #: A sample is good at or under this latency; ``None`` for
        #: objectives fed explicit good/bad verdicts.
        self.threshold_ms = threshold_ms
        self._total = _Window()
        self._bad = _Window()
        #: Rule key -> whether that rule is in the fired state.
        self.firing = {_rule_key(long_s, short_s): False for _, long_s, short_s, _ in BURN_RULES}
        #: Every state change, in evaluation order.
        self.transitions: list[dict[str, Any]] = []

    def sample(self, good: bool, now: float) -> None:
        """Record one good/bad event at ``now``."""
        self._total.observe(1.0, now)
        if not good:
            self._bad.observe(1.0, now)

    def _burn_rate(self, now: float, window_s: float) -> tuple[float, int]:
        """``(burn, total_events)`` over the trailing ``window_s``."""
        total = self._total.count(now, window_s)
        if total == 0:
            return 0.0, 0
        bad = self._bad.count(now, window_s)
        return (bad / total) / (1.0 - self.target), total

    def evaluate(self, now: float) -> list[dict[str, Any]]:
        """Evaluate every rule at ``now``; return per-rule gauge dicts.

        State changes are appended to :attr:`transitions`, stamped with
        the caller's clock.
        """
        gauges: list[dict[str, Any]] = []
        for severity, long_s, short_s, factor in BURN_RULES:
            rule = _rule_key(long_s, short_s)
            burn_long, events_long = self._burn_rate(now, long_s)
            burn_short, _ = self._burn_rate(now, short_s)
            firing = burn_long > factor and burn_short > factor
            if firing != self.firing[rule]:
                self.firing[rule] = firing
                self.transitions.append(
                    {
                        "at_s": round(now, 6),
                        "slo": self.objective,
                        "severity": severity,
                        "rule": rule,
                        "state": "fired" if firing else "resolved",
                        "burn_long": round(burn_long, 6),
                        "burn_short": round(burn_short, 6),
                    }
                )
            gauges.append(
                {
                    "rule": rule,
                    "severity": severity,
                    "factor": factor,
                    "burn_long": round(burn_long, 6),
                    "burn_short": round(burn_short, 6),
                    "events_long": events_long,
                    "firing": firing,
                }
            )
        return gauges


class HealthMonitor:
    """Aggregates health observations; renders snapshots; tracks SLOs.

    ``latency_slo_ms`` is the latency objective's good-sample threshold
    (the serve CLI's ``--slo-latency-ms``) and must be positive and
    finite.  ``series`` names the series collected; the others are
    dropped as hooks feed them (the virtual-clock load generator drops
    the wall-time ``health.recording_ms`` so replays stay bit-identical).
    """

    #: Real monitors record; the null monitor reports ``False`` so hook
    #: code can skip building label dicts when nobody is watching.
    enabled: bool = True

    def __init__(
        self,
        *,
        now: Callable[[], float] | None = None,
        latency_slo_ms: float = LATENCY_SLO_MS,
        series: Iterable[str] = tuple(SERIES_LABELS),
    ) -> None:
        if not (math.isfinite(latency_slo_ms) and latency_slo_ms > 0):
            raise ConfigurationError(
                f"latency_slo_ms must be positive and finite, got {latency_slo_ms}"
            )
        self.now: Callable[[], float] = now if now is not None else time.monotonic
        self._series = {name: _Rollup(name) for name in series}
        self._slos = {
            objective: _Slo(
                objective,
                latency_slo_ms if objective == obs_names.SLO_LATENCY else None,
            )
            for objective in sorted(SLO_TARGETS)
        }
        self._seq = 0

    # -- recording ------------------------------------------------------

    def _resolve(self, name: str, kind: str) -> _Rollup | None:
        """The series behind ``name``, or ``None`` when not collected.

        A name of the wrong kind is a configuration error: that's a
        code bug, not a choice of series.
        """
        series = self._series.get(name)
        if series is not None and series.kind != kind:
            raise ConfigurationError(f"series {name!r} is a {series.kind}, not a {kind}")
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
        if series is not None:
            series.observe(1.0, self.now() if now is None else now, labels, int(value))

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
        if series is not None:
            series.observe(value, self.now() if now is None else now, labels)

    def slo_sample(
        self,
        objective: str,
        *,
        good: bool | None = None,
        value_ms: float | None = None,
        now: float | None = None,
    ) -> None:
        """Feed one good/bad event to an objective.

        Explicit ``good`` wins; otherwise the latency threshold
        classifies ``value_ms``.
        """
        slo = self._slos[objective]
        if good is None:
            if slo.threshold_ms is None or value_ms is None:
                raise ConfigurationError(
                    f"SLO {objective!r} needs an explicit good= verdict "
                    "(it has no latency threshold)"
                )
            good = value_ms <= slo.threshold_ms
        slo.sample(good, self.now() if now is None else now)

    # -- evaluation / rendering -----------------------------------------

    def evaluate(self, now: float | None = None) -> list[dict[str, Any]]:
        """Evaluate every SLO; returns per-objective gauge dicts."""
        at = self.now() if now is None else now
        return [
            {
                "objective": slo.objective,
                "target": slo.target,
                "threshold_ms": slo.threshold_ms,
                "rules": slo.evaluate(at),
                "firing": any(slo.firing.values()),
            }
            for slo in self._slos.values()
        ]

    @property
    def transitions(self) -> list[dict[str, Any]]:
        """Every alert transition so far, in evaluation order."""
        out = [t for slo in self._slos.values() for t in slo.transitions]
        out.sort(key=lambda t: (t["at_s"], t["slo"], t["rule"]))
        return out

    def active_alerts(self) -> list[dict[str, str]]:
        """Currently firing (slo, severity, rule) triples."""
        return [
            {"slo": slo.objective, "severity": severity, "rule": _rule_key(long_s, short_s)}
            for slo in self._slos.values()
            for severity, long_s, short_s, _ in BURN_RULES
            if slo.firing[_rule_key(long_s, short_s)]
        ]

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
                    for labels, snap in self._series[name].rows(at)
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
            if series.kind == "counter":
                metric = prom_name(name) + "_total"
                lines.append(f"# TYPE {metric} counter")
                for labels, snap in series.rows(at):
                    lines.append(f"{metric}{prom_labels(labels)} {snap.count}")
                continue
            metric = prom_name(name)
            lines.append(f"# TYPE {metric} summary")
            for labels, snap in series.rows(at):
                quantiles = dict(zip(QUANTILES, snap.quantiles.values()))
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
