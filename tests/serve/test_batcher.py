"""Micro-batching: whatever is queued leaves at once, size-capped; the
dispatch loop waits only while the queue is empty."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.obs import names as obs_names
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock

from .conftest import batch_log, logging_runner, run


class TestBatchPolicy:
    def test_validation(self, executor):
        for size in (0, -1):
            with pytest.raises(ConfigurationError, match="max_batch_size"):
                ScreeningService(executor, max_batch_size=size)
        ScreeningService(executor, max_batch_size=1)


class TestMicroBatcher:
    def test_full_batch_dispatches_without_waiting(
        self, executor, serve_recordings
    ):
        # No clock advance at all: the size cap alone closes the batch.
        log = batch_log(
            executor,
            serve_recordings[0],
            [[("t", "r0"), ("t", "r1"), ("t", "r2")]],
            max_batch_size=3,
        )
        assert log == [(0.0, ["r0", "r1", "r2"])]

    def test_collect_blocks_until_work_arrives(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            log: list = []
            service = ScreeningService(
                executor,
                clock=clock,
                max_batch_size=1,
                runner=logging_runner(clock, 0.0, log),
            )
            await service.start()
            await clock.advance(5.0)  # plenty of empty time
            assert not service._dispatch_task.done()
            assert log == []
            late = asyncio.ensure_future(
                service.submit(
                    ScreeningRequest("late", "t", serve_recordings[0])
                )
            )
            await clock.settle()
            await service.stop()
            return late.result(), log

        response, log = run(scenario())
        assert [(at, len(batch)) for at, batch in log] == [(5.0, 1)]
        assert response.request_id == "late"

    def test_close_wakes_a_blocked_collect(self, executor):
        async def scenario():
            clock = VirtualClock()
            service = ScreeningService(executor, clock=clock, max_batch_size=4)
            await service.start()
            loop_task = service._dispatch_task
            await clock.settle()
            assert not loop_task.done()  # idle: waiting for work
            stopping = asyncio.ensure_future(service.stop())
            await clock.settle()
            return stopping.done(), loop_task.done(), service.metrics

        stopped, loop_done, metrics = run(scenario())
        assert stopped and loop_done
        assert metrics.counter(obs_names.METRIC_SERVE_BATCHES_DISPATCHED) == 0
