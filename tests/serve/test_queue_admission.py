"""Admission control: typed rejections, the queue cap, retry-after honesty."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    AdmissionRejected,
    ConfigurationError,
    EarSonarError,
    ServiceError,
    ServiceStoppedError,
)
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock
from repro.serve.service import RETRY_AFTER_FLOOR_S

from .conftest import run, ticking_runner


class TestPolicyValidation:
    def test_rejects_bad_values(self, executor):
        for depth in (0, -1):
            with pytest.raises(ConfigurationError, match="max_queue_depth"):
                ScreeningService(executor, max_queue_depth=depth)


class TestErrorTaxonomy:
    def test_service_errors_slot_into_the_hierarchy(self):
        rejection = AdmissionRejected(
            "too busy", reason="queue_full", retry_after_s=1.5
        )
        assert isinstance(rejection, ServiceError)
        assert isinstance(rejection, EarSonarError)
        assert rejection.reason == "queue_full"
        assert rejection.retry_after_s == 1.5
        assert isinstance(ServiceStoppedError("stopped"), ServiceError)

    def test_single_message_construction(self):
        # The taxonomy-wide contract: every error builds from one
        # positional message.
        assert AdmissionRejected("boom").reason == "queue_full"
        assert AdmissionRejected("boom").retry_after_s == 0.0


def submit_together(service, recording, count, prefix):
    """Submit ``count`` requests at once; their tasks."""
    return [
        asyncio.ensure_future(
            service.submit(ScreeningRequest(f"{prefix}{i}", "clinic", recording))
        )
        for i in range(count)
    ]


class TestAdmissionController:
    def test_clean_request_is_admitted(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            service = ScreeningService(
                executor,
                clock=clock,
                max_queue_depth=1,
                runner=ticking_runner(clock, 0.0),
            )
            await service.start()
            (task,) = submit_together(service, serve_recordings[0], 1, "r")
            await clock.settle()
            await service.stop()
            return task.result()

        assert run(scenario()).ok  # no exception under a cap of one

    def test_queue_full_rejects_at_capacity(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            service = ScreeningService(
                executor,
                clock=clock,
                max_queue_depth=2,
                max_batch_size=1,
                runner=ticking_runner(clock, 0.4),
            )
            await service.start()
            # One timed 400 ms batch, then three arrivals at once.
            await service.submit(ScreeningRequest("w", "clinic", serve_recordings[0]))
            tasks = submit_together(service, serve_recordings[0], 3, "r")
            await clock.advance_until(lambda: all(t.done() for t in tasks))
            await service.stop()
            return tasks

        tasks = run(scenario())
        assert [task.exception() is None for task in tasks] == [True, True, False]
        refused = tasks[2].exception()
        assert refused.reason == "queue_full"
        # Two batches of one ahead, each at the observed p95 of 400 ms.
        assert refused.retry_after_s == pytest.approx(0.8)

    def test_admission_never_reads_the_wait_estimate(
        self, executor, serve_recordings
    ):
        def unreachable() -> float:
            raise AssertionError("estimate read for an admitted request")

        async def scenario():
            clock = VirtualClock()
            service = ScreeningService(
                executor,
                clock=clock,
                max_queue_depth=2,
                runner=ticking_runner(clock, 0.0),
            )
            service._estimated_wait_ms = unreachable
            await service.start()
            tasks = submit_together(service, serve_recordings[0], 2, "r")
            await clock.settle()
            await service.stop()
            return [task.result() for task in tasks]

        assert all(response.ok for response in run(scenario()))

    def test_retry_after_is_floored(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            service = ScreeningService(
                executor,
                clock=clock,
                max_queue_depth=1,
                runner=ticking_runner(clock, 0.4),
            )
            await service.start()
            # No batch timed yet: the drain estimate is zero.
            tasks = submit_together(service, serve_recordings[0], 2, "r")
            await clock.advance_until(lambda: all(t.done() for t in tasks))
            await service.stop()
            return tasks[1].exception()

        refused = run(scenario())
        assert isinstance(refused, AdmissionRejected)
        assert refused.retry_after_s == RETRY_AFTER_FLOOR_S
