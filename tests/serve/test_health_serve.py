"""Fleet health in the serve loop: hooks, periodic snapshots, alerts.

All scenarios run on a :class:`VirtualClock` with the monitor's clock
wired to it, so every request timestamp, burn rate, and alert
transition is an exact function of the scenario — which is what lets
the replay test demand *equality* of transition lists, not similarity.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import names as obs_names
from repro.obs.health import HealthMonitor, use_health
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock

from .conftest import run, ticking_runner

SERVE_SERIES = (obs_names.HEALTH_REQUESTS, obs_names.HEALTH_REQUEST_MS)


def make_monitor(clock: VirtualClock, *, latency_threshold_ms: float) -> HealthMonitor:
    return HealthMonitor(
        now=clock.now, latency_slo_ms=latency_threshold_ms, series=SERVE_SERIES
    )


def make_service(executor, clock, **kwargs) -> ScreeningService:
    kwargs.setdefault("max_batch_size", 4)
    kwargs.setdefault("runner", ticking_runner(clock, 0.02))
    return ScreeningService(executor, clock=clock, **kwargs)


def soak(executor, recordings, *, latency_threshold_ms, sink=None, interval=0.5):
    """One deterministic six-request scenario; returns the monitor."""

    async def scenario():
        clock = VirtualClock()
        monitor = make_monitor(clock, latency_threshold_ms=latency_threshold_ms)
        with use_health(monitor):
            service = make_service(
                executor,
                clock,
                health_interval_s=interval,
                health_sink=sink,
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit(ScreeningRequest(f"req-{i}", "clinic", rec))
                )
                for i, rec in enumerate(recordings)
            ]
            await clock.advance_until(
                lambda: all(task.done() for task in tasks), step=0.01
            )
            await service.stop()
        return monitor

    return run(scenario())


class TestValidation:
    @pytest.mark.parametrize("interval", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_health_interval_must_be_positive_and_finite(self, executor, interval):
        with pytest.raises(ConfigurationError):
            ScreeningService(executor, health_interval_s=interval)


class TestServeRollups:
    def test_requests_and_latency_series_balance(self, executor, serve_recordings):
        monitor = soak(executor, serve_recordings, latency_threshold_ms=30_000.0)
        snap = monitor.snapshot(monitor.now())
        [requests] = snap["series"][obs_names.HEALTH_REQUESTS]
        assert requests["labels"] == {"tenant": "clinic", "outcome": "ok"}
        assert requests["count"] == len(serve_recordings)
        [latency] = snap["series"][obs_names.HEALTH_REQUEST_MS]
        assert latency["count"] == len(serve_recordings)
        assert latency["max"] > 0.0

    def test_availability_slo_sees_every_request(self, executor, serve_recordings):
        monitor = soak(executor, serve_recordings, latency_threshold_ms=30_000.0)
        [availability] = [
            entry
            for entry in monitor.evaluate(monitor.now())
            if entry["objective"] == obs_names.SLO_AVAILABILITY
        ]
        assert availability["rules"][0]["events_long"] == len(serve_recordings)
        assert availability["firing"] is False


class TestPeriodicSnapshots:
    def test_snapshot_sink_fires_on_the_interval(self, executor, serve_recordings):
        snapshots: list[dict] = []
        monitor = soak(
            executor,
            serve_recordings,
            latency_threshold_ms=30_000.0,
            sink=snapshots.append,
        )
        assert len(snapshots) >= 2
        # Sequence numbers are contiguous and the sink got full dicts.
        assert [s["seq"] for s in snapshots] == list(
            range(1, len(snapshots) + 1)
        )
        assert all("slos" in s and "series" in s for s in snapshots)
        # Periodic snapshots are at least one interval apart.
        periodic = [s["at_s"] for s in snapshots[:-1]]
        assert all(b - a >= 0.5 for a, b in zip(periodic, periodic[1:]))
        # stop() forces a closing snapshot, so the trajectory covers
        # the whole scenario.
        assert snapshots[-1]["at_s"] == round(monitor.now(), 6)

    def test_no_interval_means_no_snapshots(self, executor, serve_recordings):
        snapshots: list[dict] = []

        async def scenario():
            clock = VirtualClock()
            monitor = make_monitor(clock, latency_threshold_ms=30_000.0)
            with use_health(monitor):
                service = make_service(executor, clock, health_sink=snapshots.append)
                await service.start()
                task = asyncio.ensure_future(
                    service.submit(
                        ScreeningRequest("req-0", "clinic", serve_recordings[0])
                    )
                )
                await clock.advance_until(task.done, step=0.01)
                await service.stop()
            return monitor

        monitor = run(scenario())
        assert snapshots == []
        # The service built no snapshot of its own: this is the first.
        assert monitor.snapshot(monitor.now())["seq"] == 1


class TestAlertDeterminism:
    def test_tight_latency_slo_fires_and_default_does_not(
        self, executor, serve_recordings
    ):
        # Every request takes >= one 20 ms batch tick of virtual time,
        # so a 1 ms threshold marks all of them bad: burn 1/0.05 = 20 on
        # every window, past the page's 14.4 -> the page must fire.
        tight = soak(executor, serve_recordings, latency_threshold_ms=1.0)
        fired = [t for t in tight.transitions if t["state"] == "fired"]
        assert fired and all(t["slo"] == obs_names.SLO_LATENCY for t in fired)
        assert tight.active_alerts() != []
        # The generous threshold classifies the same traffic good.
        default = soak(executor, serve_recordings, latency_threshold_ms=30_000.0)
        assert default.transitions == []
        assert default.active_alerts() == []

    def test_replay_reproduces_identical_transition_timestamps(
        self, executor, serve_recordings
    ):
        first = soak(executor, serve_recordings, latency_threshold_ms=1.0)
        second = soak(executor, serve_recordings, latency_threshold_ms=1.0)
        assert first.transitions == second.transitions
        assert first.snapshot(first.now()) == second.snapshot(second.now())
