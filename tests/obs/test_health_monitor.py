"""HealthMonitor semantics: label discipline, SLO burn rates, rendering.

Three contracts:

1. **The monitor refuses what it cannot evaluate.**  The latency
   threshold comes from outside the program, so one that is not
   positive and finite is a :class:`ConfigurationError` at
   construction.  Label keys come from the closed vocabulary, label
   values stay within the per-key budget, and a series fed as the wrong
   kind is a code bug.
2. **Burn-rate alerting is the SRE recipe, deterministically.**  A rule
   fires only while both its windows exceed the factor, transitions
   carry the caller's clock, and replaying the same observation log
   reproduces identical transition timestamps.  The timestamps are
   spaced so the real page (300 s / 60 s) and ticket (1500 s / 300 s)
   windows see the stream cross bucket boundaries.
3. **Disabled is invisible.**  The null monitor returns empty
   renderings.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import health
from repro.obs import names as obs_names
from repro.obs.health import NULL_HEALTH, OVERFLOW_VALUE, SERIES_LABELS, HealthMonitor

from .prometheus_format import validate_prometheus

SERIES = (obs_names.HEALTH_REQUESTS, obs_names.HEALTH_REQUEST_MS)

PAGE = {"slo": obs_names.SLO_AVAILABILITY, "severity": "page", "rule": "300s/60s"}
TICKET = {"slo": obs_names.SLO_AVAILABILITY, "severity": "ticket", "rule": "1500s/300s"}


def make_monitor() -> HealthMonitor:
    return HealthMonitor(now=lambda: 0.0, series=SERIES)


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


def availability(monitor: HealthMonitor, verdicts, *, t0: float = 1000.0, dt: float = 1.0):
    """Feed one availability sample per verdict, ``dt`` seconds apart."""
    for i, good in enumerate(verdicts):
        monitor.slo_sample(obs_names.SLO_AVAILABILITY, good=good, now=t0 + i * dt)


def rules_of(monitor: HealthMonitor, objective: str, now: float) -> dict[str, dict]:
    [entry] = [e for e in monitor.evaluate(now) if e["objective"] == objective]
    return {rule["severity"]: rule for rule in entry["rules"]}


class TestConfigValidation:
    @pytest.mark.parametrize("threshold_ms", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_latency_threshold_must_be_positive_and_finite(self, threshold_ms):
        # The serve CLI's --slo-latency-ms takes this path.
        with pytest.raises(ConfigurationError, match="latency_slo_ms"):
            HealthMonitor(latency_slo_ms=threshold_ms)


class TestSeriesResolution:
    def test_series_table_matches_the_name_registry(self):
        assert set(SERIES_LABELS) == (
            obs_names.HEALTH_COUNTER_SERIES | obs_names.HEALTH_DISTRIBUTION_SERIES
        )
        for name, keys in SERIES_LABELS.items():
            assert set(keys) <= obs_names.HEALTH_LABEL_KEYS, name

    def test_unconfigured_series_is_a_no_op(self):
        monitor = make_monitor()
        monitor.increment(obs_names.HEALTH_RAKE_TAPS, 3, labels={"device_model": "x"})
        monitor.observe(obs_names.HEALTH_RECORDING_MS, 5.0)
        assert monitor.snapshot(0.0)["series"] == {}

    def test_wrong_kind_is_a_configuration_error(self):
        monitor = make_monitor()
        with pytest.raises(ConfigurationError, match="counter"):
            monitor.observe(obs_names.HEALTH_REQUESTS, 1.0)


class TestRollups:
    def test_undeclared_label_key_is_rejected_at_observation(self):
        monitor = make_monitor()
        with pytest.raises(ConfigurationError, match="undeclared key"):
            monitor.increment(obs_names.HEALTH_REQUESTS, labels={"reason": "x"}, now=0.0)

    def test_value_budget_folds_the_tail_into_overflow(self, monkeypatch):
        monkeypatch.setattr(health, "MAX_VALUES_PER_KEY", 2)
        monitor = make_monitor()
        for tenant in ("a", "b", "c", "d", "c"):
            monitor.observe(
                obs_names.HEALTH_REQUEST_MS, 1.0, labels={"tenant": tenant}, now=50.0
            )
        rows = {
            row["labels"]["tenant"]: row["count"]
            for row in monitor.snapshot(50.0)["series"][obs_names.HEALTH_REQUEST_MS]
        }
        # Totals survive the fold even though the tail lost its rows.
        assert rows == {"a": 1, "b": 1, OVERFLOW_VALUE: 3}

    def test_buckets_expire_past_the_horizon(self):
        monitor = make_monitor()
        for at in (10.0, 12.0):
            monitor.observe(obs_names.HEALTH_REQUEST_MS, 1.0, now=at)

        def count(now: float) -> int:
            rows = monitor.snapshot(now)["series"].get(obs_names.HEALTH_REQUEST_MS, [])
            return sum(row["count"] for row in rows)

        assert count(15.0) == 2
        # Past the 30-minute horizon the old bucket drops out of the
        # read even though its ring slot has not been recycled yet.
        assert count(10.0 + health.HORIZON_S + health.BUCKET_S) == 0


class TestBurnRateAlerting:
    def test_burn_rate_is_error_ratio_over_budget(self):
        monitor = make_monitor()
        # 100 samples a second apart, the last 3 bad: error ratio 0.03
        # on a 0.001 budget is burn 30 over the 300 s page window; the
        # 60 s short window holds 55 of them, so it burns hotter.
        availability(monitor, [i < 97 for i in range(100)])
        page = rules_of(monitor, obs_names.SLO_AVAILABILITY, 1100.0)["page"]
        assert page["events_long"] == 100
        assert page["burn_long"] == pytest.approx(30.0)
        assert page["burn_short"] == pytest.approx(3 / 55 / 0.001, rel=1e-6)
        assert page["firing"] is True

    def test_slow_burn_does_not_fire_the_fast_rule(self):
        monitor = make_monitor()
        # 10% bad on the quality objective's 10% budget: burn 1.0,
        # under both the page and the ticket factor.
        for i in range(50):
            monitor.slo_sample(obs_names.SLO_QUALITY, good=i % 10 != 0, now=1000.0 + i)
        rules = rules_of(monitor, obs_names.SLO_QUALITY, 1050.0)
        assert [rule["burn_long"] for rule in rules.values()] == [1.0, 1.0]
        assert not any(rule["firing"] for rule in rules.values())
        assert monitor.active_alerts() == []

    def test_one_bad_request_in_an_idle_fleet_pages(self):
        monitor = HealthMonitor(now=lambda: 0.0)
        monitor.slo_sample(obs_names.SLO_AVAILABILITY, good=False, now=100.0)
        monitor.evaluate(101.0)
        assert monitor.active_alerts() == [PAGE, TICKET]

    def test_short_window_recovery_resolves_the_alert(self):
        monitor = make_monitor()
        availability(monitor, [False] * 10)
        monitor.evaluate(1010.0)
        assert monitor.active_alerts() == [PAGE, TICKET]
        # 70 s of clean traffic empties the page's 60 s short window,
        # while the long windows and the ticket's 300 s short window
        # still remember the damage.
        availability(monitor, [True] * 70, t0=1011.0)
        monitor.evaluate(1080.0)
        assert monitor.active_alerts() == [TICKET]
        assert [(t["state"], t["severity"], t["at_s"]) for t in monitor.transitions] == [
            ("fired", "ticket", 1010.0),
            ("fired", "page", 1010.0),
            ("resolved", "page", 1080.0),
        ]

    def test_replayed_observation_log_reproduces_transitions_exactly(self):
        verdicts = [not 40 <= i < 80 for i in range(240)]
        eval_points = [1050.0, 1120.0, 1200.0, 1400.0, 1600.0]

        def replay():
            monitor = make_monitor()
            availability(monitor, verdicts, dt=2.5)
            for at in eval_points:
                monitor.evaluate(at)
            return monitor.transitions

        first = replay()
        assert {t["state"] for t in first} == {"fired", "resolved"}
        assert first == replay()

    def test_evaluate_is_idempotent_between_state_changes(self):
        monitor = make_monitor()
        availability(monitor, [False] * 10)
        monitor.evaluate(1010.0)
        transitions = monitor.transitions
        monitor.evaluate(1010.5)
        assert monitor.transitions == transitions
        assert len(transitions) == 2


class TestRendering:
    def test_snapshot_shape_and_sequence(self):
        monitor = make_monitor()
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
        monitor = make_monitor()
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
        monitor = make_monitor()
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
