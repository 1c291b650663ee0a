"""HealthMonitor semantics: config validation, SLO burn rates, rendering.

Three contracts:

1. **Configs refuse what they cannot evaluate.**  Window widths, burn
   windows, burn factors and latency thresholds must be positive and
   finite; anything else is a :class:`ConfigurationError` at
   construction, not a bare ``ValueError`` (or a rule that can never
   fire) later.
2. **Burn-rate alerting is the SRE recipe, deterministically.**  A rule
   fires only when both its windows exceed the factor with enough
   events, transitions carry the caller's clock, and replaying the same
   observation log reproduces identical transition timestamps.
3. **Disabled is invisible.**  The null monitor returns empty
   renderings.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import names as obs_names
from repro.obs.health import (
    DEFAULT_SLOS,
    NULL_HEALTH,
    BurnRule,
    HealthConfig,
    HealthMonitor,
    SeriesSpec,
    SloConfig,
)
from repro.obs.health.window import WindowConfig

from .prometheus_format import validate_prometheus

WINDOW = WindowConfig(bucket_s=5.0, num_buckets=360)

CONFIG = HealthConfig(
    window=WINDOW,
    series=(
        SeriesSpec(obs_names.HEALTH_REQUESTS, ("tenant", "outcome"), "counter"),
        SeriesSpec(obs_names.HEALTH_REQUEST_MS, ("tenant",), "distribution"),
    ),
    slos=(
        SloConfig(
            objective=obs_names.SLO_AVAILABILITY,
            target=0.9,
            rules=(BurnRule(long_s=60.0, short_s=10.0, factor=2.0, min_events=5),),
        ),
    ),
)


def feed(monitor: HealthMonitor, samples) -> None:
    for at, tenant, ms in samples:
        monitor.increment(
            obs_names.HEALTH_REQUESTS,
            labels={"tenant": tenant, "outcome": "ok"},
            now=at,
        )
        monitor.observe(
            obs_names.HEALTH_REQUEST_MS, ms, labels={"tenant": tenant}, now=at
        )


def sample_stream(n: int = 60):
    return [
        (100.0 + i * 0.5, "clinic" if i % 3 else "lab", (i % 17) * 8.0 + 0.5)
        for i in range(n)
    ]


class TestConfigValidation:
    @pytest.mark.parametrize("bucket_s", [0.0, -5.0, math.nan, math.inf])
    def test_window_bucket_must_be_positive_and_finite(self, bucket_s):
        with pytest.raises(ConfigurationError, match="bucket_s"):
            WindowConfig(bucket_s=bucket_s)

    @pytest.mark.parametrize(
        "long_s, short_s",
        [
            (0.0, 0.0),
            (60.0, -1.0),
            (math.nan, math.nan),
            (math.nan, 10.0),
            (60.0, math.nan),
            (math.inf, 10.0),
            (math.inf, math.inf),
        ],
    )
    def test_burn_windows_must_be_positive_and_finite(self, long_s, short_s):
        with pytest.raises(ConfigurationError, match="burn windows"):
            BurnRule(long_s=long_s, short_s=short_s, factor=2.0)

    @pytest.mark.parametrize("factor", [0.0, -2.0, math.nan, math.inf])
    def test_burn_factor_must_be_positive_and_finite(self, factor):
        with pytest.raises(ConfigurationError, match="factor"):
            BurnRule(long_s=60.0, short_s=10.0, factor=factor)

    @pytest.mark.parametrize("threshold_ms", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_latency_threshold_must_be_positive_and_finite(self, threshold_ms):
        with pytest.raises(ConfigurationError, match="threshold_ms"):
            SloConfig(
                objective=obs_names.SLO_LATENCY,
                target=0.95,
                threshold_ms=threshold_ms,
            )
        # The serve CLI's --slo-latency-ms override takes this path.
        [latency] = [s for s in DEFAULT_SLOS if s.objective == obs_names.SLO_LATENCY]
        with pytest.raises(ConfigurationError, match="threshold_ms"):
            dataclasses.replace(latency, threshold_ms=threshold_ms)


class TestSeriesResolution:
    def test_unconfigured_series_is_a_no_op(self):
        monitor = HealthMonitor(CONFIG, now=lambda: 0.0)
        monitor.increment(obs_names.HEALTH_RAKE_TAPS, 3, labels={"device_model": "x"})
        monitor.observe(obs_names.HEALTH_RECORDING_MS, 5.0)
        assert monitor.snapshot(0.0)["series"] == {}

    def test_wrong_kind_is_a_configuration_error(self):
        monitor = HealthMonitor(CONFIG, now=lambda: 0.0)
        with pytest.raises(ConfigurationError, match="counter"):
            monitor.observe(obs_names.HEALTH_REQUESTS, 1.0)

    def test_duplicate_series_rejected(self):
        spec = SeriesSpec(obs_names.HEALTH_REQUESTS, ("tenant",), "counter")
        with pytest.raises(ConfigurationError, match="duplicate"):
            HealthMonitor(HealthConfig(series=(spec, spec)))


class TestBurnRateAlerting:
    RULE = BurnRule(long_s=60.0, short_s=10.0, factor=2.0, min_events=5)

    def monitor(self) -> HealthMonitor:
        return HealthMonitor(CONFIG, now=lambda: 0.0)

    def test_burn_rate_is_error_ratio_over_budget(self):
        monitor = self.monitor()
        # 10 samples, the last 3 bad: error ratio 0.3, budget 0.1 ->
        # burn 3.0 on the long window; the recent cluster also trips
        # the 10 s short window, so both conditions hold.
        for i in range(10):
            monitor.slo_sample(
                obs_names.SLO_AVAILABILITY, good=i < 7, now=100.0 + i
            )
        [entry] = monitor.evaluate(110.0)
        [gauge] = entry["rules"]
        assert gauge["burn_long"] == pytest.approx(3.0)
        assert gauge["firing"] is True

    def test_slow_burn_does_not_fire_the_fast_rule(self):
        monitor = self.monitor()
        # 10% bad on a 10% budget: burn 1.0, well under factor 2.
        for i in range(50):
            monitor.slo_sample(
                obs_names.SLO_AVAILABILITY, good=i % 10 != 0, now=100.0 + i
            )
        [entry] = monitor.evaluate(150.0)
        assert entry["rules"][0]["firing"] is False
        assert monitor.active_alerts() == []

    def test_min_events_holds_an_idle_fleet_quiet(self):
        monitor = self.monitor()
        monitor.slo_sample(obs_names.SLO_AVAILABILITY, good=False, now=100.0)
        [entry] = monitor.evaluate(101.0)
        # Burn is enormous but 1 < min_events: no page for one bad
        # request in an otherwise idle fleet.
        assert entry["rules"][0]["firing"] is False

    def test_short_window_recovery_resolves_the_alert(self):
        monitor = self.monitor()
        for i in range(10):
            monitor.slo_sample(obs_names.SLO_AVAILABILITY, good=False, now=100.0 + i)
        monitor.evaluate(110.0)
        assert monitor.active_alerts() != []
        # 20 s of clean traffic empties the 10 s short window while
        # the long window still remembers the damage.
        for i in range(20):
            monitor.slo_sample(obs_names.SLO_AVAILABILITY, good=True, now=111.0 + i)
        monitor.evaluate(131.0)
        assert monitor.active_alerts() == []
        assert [(t["state"], t["at_s"]) for t in monitor.transitions] == [
            ("fired", 110.0),
            ("resolved", 131.0),
        ]

    def test_replayed_observation_log_reproduces_transitions_exactly(self):
        observations = [(100.0 + i * 0.25, i % 4 == 0) for i in range(120)]
        eval_points = [105.0, 112.0, 120.0, 131.0]

        def replay():
            monitor = self.monitor()
            for at, bad in observations:
                monitor.slo_sample(obs_names.SLO_AVAILABILITY, good=not bad, now=at)
            for at in eval_points:
                monitor.evaluate(at)
            return monitor.transitions

        assert replay() == replay()

    def test_evaluate_is_idempotent_between_state_changes(self):
        monitor = self.monitor()
        for i in range(10):
            monitor.slo_sample(obs_names.SLO_AVAILABILITY, good=False, now=100.0 + i)
        monitor.evaluate(110.0)
        monitor.evaluate(110.5)
        assert len(monitor.transitions) == 1

    def test_unknown_objective_is_ignored(self):
        monitor = self.monitor()
        monitor.slo_sample(obs_names.SLO_QUALITY, good=False, now=1.0)
        assert monitor.transitions == []

    def test_rule_longer_than_the_ring_is_rejected(self):
        with pytest.raises(ConfigurationError, match="retains"):
            HealthMonitor(
                HealthConfig(
                    window=WindowConfig(bucket_s=1.0, num_buckets=10),
                    series=(),
                    slos=(
                        SloConfig(
                            objective=obs_names.SLO_AVAILABILITY,
                            target=0.99,
                            rules=(BurnRule(long_s=300.0, short_s=60.0, factor=2.0),),
                        ),
                    ),
                )
            )


class TestRendering:
    def test_snapshot_shape_and_sequence(self):
        monitor = HealthMonitor(CONFIG, now=lambda: 0.0)
        feed(monitor, sample_stream(12))
        snap = monitor.snapshot(110.0)
        assert snap["seq"] == 1
        assert snap["at_s"] == 110.0
        requests = snap["series"][obs_names.HEALTH_REQUESTS]
        assert sum(row["count"] for row in requests) == 12
        assert {tuple(sorted(row["labels"])) for row in requests} == {
            ("outcome", "tenant")
        }
        latency = snap["series"][obs_names.HEALTH_REQUEST_MS]
        assert all("quantiles" in row for row in latency)
        assert monitor.snapshot(111.0)["seq"] == 2

    def test_prometheus_text_renders_counters_and_summaries(self):
        monitor = HealthMonitor(CONFIG, now=lambda: 0.0)
        feed(monitor, sample_stream(12))
        text = monitor.prometheus(110.0)
        assert "# TYPE earsonar_health_requests_total counter" in text
        assert 'earsonar_health_requests_total{outcome="ok",tenant="clinic"}' in text
        assert "# TYPE earsonar_health_request_ms summary" in text
        assert 'quantile="0.95"' in text
        assert "earsonar_health_request_ms_count" in text
        assert "earsonar_slo_burn_rate" in text
        validate_prometheus(text)

    def test_prometheus_label_values_escape_backslash_quote_newline(self):
        monitor = HealthMonitor(CONFIG, now=lambda: 0.0)
        tenant = 'a\\b"c\nd'
        feed(monitor, [(100.0, tenant, 12.0), (101.0, "clinic", 3.0)])
        text = monitor.prometheus(110.0)
        validate_prometheus(text)
        assert 'earsonar_health_request_ms_count{tenant="a\\\\b\\"c\\nd"} 1\n' in text

    def test_null_monitor_renders_nothing(self):
        assert NULL_HEALTH.snapshot() == {}
        assert NULL_HEALTH.prometheus() == ""
        assert NULL_HEALTH.transitions == ()
        assert NULL_HEALTH.active_alerts() == []
