"""Chaos scenarios: deliberate worker failure on the executor pool path.

Each test arms a deterministic :class:`FaultInjector` and asserts the
recovery machinery — chunk quarantine and per-task deadlines — converts
the failure into structured outcomes without ever losing a recording or
raising out of ``BatchExecutor.run``.
"""

from __future__ import annotations

import pytest

from repro.core import EarSonarConfig, EarSonarPipeline
from repro.core.results import ProcessedRecording
from repro.runtime import BatchExecutor, FaultInjector
from repro.runtime.faults import FailedRecording

pytestmark = pytest.mark.chaos


def outcome_types(result):
    return [type(o).__name__ for o in result.outcomes]


@pytest.fixture(scope="module")
def pipeline():
    return EarSonarPipeline(EarSonarConfig())


class TestInjectedError:
    def test_tripped_chunk_quarantines_rest_survives(self, pipeline, chaos_batch):
        executor = BatchExecutor(
            pipeline,
            workers=2,
            chunk_size=4,
            fault_injector=FaultInjector(mode="error", indices=(0,)),
        )
        result = executor.run(chaos_batch)

        assert len(result) == len(chaos_batch)
        # The chunk containing index 0 is quarantined as the injected fault.
        assert isinstance(result.outcomes[0], FailedRecording)
        assert result.outcomes[0].error_type == "InjectedFaultError"
        assert "batch index 0" in result.outcomes[0].reason
        # Everything outside that chunk processed normally.
        assert all(
            isinstance(o, ProcessedRecording) for o in result.outcomes[4:]
        )
        assert executor.metrics.counter("executor.worker_failures") == 1

    def test_a_lone_miss_still_takes_the_pool_and_trips(self, pipeline, chaos_batch):
        # One miss would run in-process, where injection never arms.
        with BatchExecutor(
            pipeline,
            workers=2,
            fault_injector=FaultInjector(mode="error", indices=(0,)),
        ) as executor:
            result = executor.run(chaos_batch[:1])

        assert isinstance(result.outcomes[0], FailedRecording)
        assert result.outcomes[0].error_type == "InjectedFaultError"
        assert executor.metrics.counter("chunks.dispatched") == 1

    def test_injection_is_deterministic(self, pipeline, chaos_batch):
        def run_once():
            executor = BatchExecutor(
                pipeline,
                workers=2,
                chunk_size=4,
                fault_injector=FaultInjector(mode="error", indices=(0, 9)),
            )
            return outcome_types(executor.run(chaos_batch))

        assert run_once() == run_once()


class TestWorkerCrash:
    def test_dead_worker_becomes_worker_crash_error(self, pipeline, chaos_batch):
        executor = BatchExecutor(
            pipeline,
            workers=2,
            chunk_size=4,
            fault_injector=FaultInjector(mode="crash", indices=(0,)),
        )
        result = executor.run(chaos_batch)

        assert len(result) == len(chaos_batch)
        crashed = [o for o in result.quarantine if o.error_type == "WorkerCrashError"]
        assert crashed  # the crashed chunk is accounted for
        assert executor.metrics.counter("executor.worker_failures") >= 1
        # No recording is silently lost.
        assert result.ok_count + result.failed_count == len(chaos_batch)


class TestDeadline:
    def test_hung_worker_is_quarantined_as_timeout(self, pipeline, chaos_batch):
        executor = BatchExecutor(
            pipeline,
            workers=2,
            chunk_size=8,
            task_timeout_s=1.5,
            # Long enough to overshoot the deadline decisively, short
            # enough that the abandoned worker exits soon after.
            fault_injector=FaultInjector(mode="hang", indices=(0,), hang_s=5.0),
        )
        result = executor.run(chaos_batch)

        assert len(result) == len(chaos_batch)
        assert isinstance(result.outcomes[0], FailedRecording)
        assert result.outcomes[0].error_type == "TaskTimeoutError"
        assert executor.metrics.counter("executor.timeouts") == 1
        # The second chunk still completed despite the hung sibling.
        assert all(
            isinstance(o, ProcessedRecording) for o in result.outcomes[8:]
        )
