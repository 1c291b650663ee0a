"""Chaos scenarios on an open executor's long-lived worker pool.

An opened :class:`BatchExecutor` keeps one pool across runs.  A pool
that lost a worker or missed a deadline must not serve the next run:
it is discarded, its workers killed, and a new one counted in
``executor.pool_starts``.  Closing the executor (directly or by
stopping the service that opened it) leaves no worker process behind,
and a worker forked under the parent's tracer and health monitor keeps
neither.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

import pytest

from repro.core import EarSonarConfig, EarSonarPipeline
from repro.core.results import ProcessedRecording
from repro.obs import names as obs_names
from repro.obs.health import HealthMonitor, current_health, use_health
from repro.obs.tracer import Tracer, current_tracer, use_tracer
from repro.runtime import BatchExecutor, FaultInjector
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def pipeline():
    return EarSonarPipeline(EarSonarConfig())


@pytest.fixture(autouse=True)
def no_children_before():
    """Let workers other tests shut down without waiting finish exiting."""
    deadline = time.monotonic() + 30.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def pool_starts(executor) -> int:
    return executor.metrics.counter(obs_names.METRIC_POOL_STARTS)


def _worker_telemetry() -> tuple[bool, bool]:
    """Whether the worker running this has an ambient tracer or monitor."""
    return current_tracer().enabled, current_health().enabled


class TestFaultedPoolIsReplaced:
    def test_crash_quarantines_its_chunk_and_the_next_run_succeeds(
        self, pipeline, chaos_batch
    ):
        executor = BatchExecutor(pipeline, workers=2, chunk_size=4).open()
        executor.run(chaos_batch[:8])
        # One chunk in flight: a dead worker breaks every chunk its pool
        # is running, so only this way is the crashed chunk all there is.
        executor.fault_injector = FaultInjector(mode="crash", indices=(0,))
        crashed = executor.run(chaos_batch[:4])
        executor.fault_injector = None
        healthy = executor.run(chaos_batch)
        executor.close()

        assert [o.error_type for o in crashed.outcomes] == ["WorkerCrashError"] * 4
        assert healthy.ok_count == len(chaos_batch)
        assert pool_starts(executor) == 2
        assert not multiprocessing.active_children()

    def test_hung_worker_is_killed_not_abandoned(self, pipeline, chaos_batch):
        executor = BatchExecutor(
            pipeline,
            workers=2,
            chunk_size=8,
            task_timeout_s=1.5,
            fault_injector=FaultInjector(mode="hang", indices=(0,), hang_s=30.0),
        ).open()
        result = executor.run(chaos_batch)
        start = time.monotonic()
        executor.close()
        closing_s = time.monotonic() - start

        assert result.outcomes[0].error_type == "TaskTimeoutError"
        assert all(isinstance(o, ProcessedRecording) for o in result.outcomes[8:])
        assert closing_s < 5.0
        assert not multiprocessing.active_children()

    def test_worker_killed_while_idle_is_replaced(self, pipeline, chaos_batch):
        with BatchExecutor(pipeline, workers=2, chunk_size=4) as executor:
            executor.run(chaos_batch)
            pool = executor._pool
            next(iter(pool._processes.values())).kill()
            deadline = time.monotonic() + 10.0
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken
            result = executor.run(chaos_batch)
            assert result.ok_count == len(chaos_batch)
            assert pool_starts(executor) == 2
        assert not multiprocessing.active_children()


class TestWorkerHygiene:
    def test_workers_forked_under_telemetry_keep_none(self, pipeline, chaos_batch):
        with BatchExecutor(pipeline, workers=2, chunk_size=4) as executor:
            tracer = Tracer()
            with use_tracer(tracer), use_health(HealthMonitor()):
                executor.run(chaos_batch)  # the pool is forked here
            executor.run(chaos_batch)  # untraced chunks on the same workers
            probes = [executor._pool.submit(_worker_telemetry) for _ in range(8)]
            seen = {probe.result() for probe in probes}
            assert pool_starts(executor) == 1
        assert seen == {(False, False)}
        # The traced run's recording spans still came home from the workers.
        roots = [t for t in tracer.traces if t.name == obs_names.SPAN_RECORDING]
        assert len(roots) == len(chaos_batch)


class TestServiceLifetime:
    def test_stop_leaves_no_worker_behind(self, pipeline, chaos_batch):
        executor = BatchExecutor(pipeline, workers=2)

        async def scenario():
            clock = VirtualClock()
            service = ScreeningService(
                executor,
                clock=clock,
                max_batch_size=4,
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit(ScreeningRequest(f"r{i}", "clinic", capture))
                )
                for i, capture in enumerate(chaos_batch[:8])
            ]
            await clock.advance_until(lambda: all(task.done() for task in tasks))
            await service.stop()
            return [task.result() for task in tasks]

        responses = asyncio.run(scenario())
        assert all(response.ok for response in responses)
        assert len({response.batch for response in responses}) == 2
        assert pool_starts(executor) == 1
        assert not multiprocessing.active_children()
