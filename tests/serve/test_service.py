"""End-to-end service behavior on a virtual clock: no real sleeps.

These are deterministic *simulations*: requests arrive as asyncio
tasks, batch cost is modelled by stub runners that tick the virtual
clock, and every assertion — backpressure, fairness, drain semantics —
holds on exact virtual timestamps.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.errors import AdmissionRejected, ServiceStoppedError
from repro.obs import names as obs_names
from repro.quality import QualityConfig, assess_recording
from repro.runtime.cache import recording_key
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock

from .conftest import run, ticking_runner


def make_service(executor, clock, **kwargs) -> ScreeningService:
    kwargs.setdefault("max_batch_size", 4)
    kwargs.setdefault("runner", ticking_runner(clock, 0.02))
    return ScreeningService(executor, clock=clock, **kwargs)


def submit_all(service, requests):
    return [
        asyncio.ensure_future(service.submit(request)) for request in requests
    ]


async def drive(clock, tasks, step=0.01):
    await clock.advance_until(
        lambda: all(task.done() for task in tasks), step=step
    )
    return tasks


@pytest.fixture
def gate_calls(monkeypatch):
    """Recordings the service's quality gate ran on."""
    calls = []

    def counting(recording, *args, **kwargs):
        calls.append(recording)
        return assess_recording(recording, *args, **kwargs)

    monkeypatch.setattr("repro.serve.service.assess_recording", counting)
    return calls


class TestHappyPath:
    def test_every_request_answered_exactly_once(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            service = make_service(executor, clock)
            await service.start()
            requests = [
                ScreeningRequest(f"req-{i}", "clinic", recording)
                for i, recording in enumerate(serve_recordings)
            ]
            tasks = submit_all(service, requests)
            await drive(clock, tasks)
            await service.stop()
            return [task.result() for task in tasks]

        responses = run(scenario())
        assert len(responses) == 6
        assert all(response.ok for response in responses)
        assert sorted(r.request_id for r in responses) == [
            f"req-{i}" for i in range(6)
        ]
        # Size cap 4: first batch full, second carries the remainder.
        assert [r.batch for r in responses] == [0, 0, 0, 0, 1, 1]

    def test_counters_balance(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            service = make_service(executor, clock)
            await service.start()
            tasks = submit_all(
                service,
                [
                    ScreeningRequest(f"r{i}", "clinic", rec)
                    for i, rec in enumerate(serve_recordings[:3])
                ],
            )
            await drive(clock, tasks)
            await service.stop()
            return service.metrics

        metrics = run(scenario())
        assert metrics.counter(obs_names.METRIC_SERVE_SUBMITTED) == 3
        assert metrics.counter(obs_names.METRIC_SERVE_ADMITTED) == 3
        assert metrics.counter(obs_names.METRIC_SERVE_COMPLETED) == 3
        assert metrics.histogram(obs_names.HIST_SERVE_REQUEST_MS).count == 3
        assert metrics.histogram(obs_names.HIST_SERVE_BATCH_MS).count >= 1

    def test_lone_request_leaves_at_once(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor,
                clock,
                max_batch_size=8,
                runner=ticking_runner(clock, 0.0),
            )
            await service.start()
            tasks = submit_all(
                service,
                [ScreeningRequest("lone", "clinic", serve_recordings[0])],
            )
            await drive(clock, tasks)
            await service.stop()
            return tasks[0].result()

        response = run(scenario())
        assert response.queue_ms == 0.0

    def test_arrivals_during_a_batch_leave_together_next(
        self, executor, serve_recordings
    ):
        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor,
                clock,
                max_batch_size=8,
                runner=ticking_runner(clock, 0.1),
            )
            await service.start()

            async def arrive(delay, request):
                await clock.sleep(delay)
                return await service.submit(request)

            # The first request's batch runs from t=0 to t=0.1; the
            # other three arrive while it runs.
            tasks = [
                asyncio.ensure_future(
                    arrive(delay, ScreeningRequest(f"r{i}", "clinic", recording))
                )
                for i, (delay, recording) in enumerate(
                    zip((0.0, 0.03, 0.05, 0.07), serve_recordings)
                )
            ]
            await drive(clock, tasks)
            await service.stop()
            return [task.result() for task in tasks]

        first, *rest = run(scenario())
        assert first.batch == 0
        assert [r.batch for r in rest] == [1, 1, 1]
        assert all(r.batch_ms == pytest.approx(100.0) for r in rest)

    def test_each_caller_resumes_at_its_own_batch_end(
        self, executor, serve_recordings
    ):
        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor,
                clock,
                max_batch_size=1,
                runner=ticking_runner(clock, 0.1),
            )
            await service.start()
            returned_at: dict[str, float] = {}

            async def call(request):
                response = await service.submit(request)
                returned_at[request.request_id] = clock.now()
                return response

            # Three requests queue before the dispatch loop wakes; under
            # a cap of 1 they leave as three 0.1 s batches.
            tasks = [
                asyncio.ensure_future(
                    call(ScreeningRequest(f"r{i}", "clinic", recording))
                )
                for i, recording in enumerate(serve_recordings[:3])
            ]
            await drive(clock, tasks)
            await service.stop()
            return returned_at, [task.result().batch for task in tasks]

        returned_at, batches = run(scenario())
        assert batches == [0, 1, 2]
        assert [returned_at[f"r{i}"] for i in range(3)] == pytest.approx(
            [0.1, 0.2, 0.3]
        )


class TestBackpressure:
    def test_queue_full_rejects_with_typed_reason(
        self, executor, serve_recordings
    ):
        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor,
                clock,
                max_queue_depth=2,
                max_batch_size=2,
            )
            await service.start()
            requests = [
                ScreeningRequest(f"r{i}", "clinic", serve_recordings[0])
                for i in range(5)
            ]
            tasks = submit_all(service, requests)
            await drive(clock, tasks)
            await service.stop()
            return tasks, service.metrics

        tasks, metrics = run(scenario())
        rejected = [
            task.exception()
            for task in tasks
            if task.exception() is not None
        ]
        answered = [task for task in tasks if task.exception() is None]
        # The first two fill the queue; the dispatch loop has had no
        # chance to drain before the rest are checked.
        assert len(rejected) == 3
        assert all(isinstance(exc, AdmissionRejected) for exc in rejected)
        assert {exc.reason for exc in rejected} == {"queue_full"}
        assert all(exc.retry_after_s > 0 for exc in rejected)
        assert len(answered) == 2
        assert (
            metrics.counter(obs_names.METRIC_SERVE_REJECTED_QUEUE_FULL) == 3
        )

class TestTenantFairness:
    def test_backlogged_tenant_cannot_starve_the_light_one(
        self, executor, serve_recordings
    ):
        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor,
                clock,
                max_batch_size=2,
            )
            await service.start()
            # 8 hot requests enqueue first, then 2 light ones.
            hot = submit_all(
                service,
                [
                    ScreeningRequest(f"h{i}", "hot", serve_recordings[0])
                    for i in range(8)
                ],
            )
            light = submit_all(
                service,
                [
                    ScreeningRequest(f"l{i}", "light", serve_recordings[1])
                    for i in range(2)
                ],
            )
            await drive(clock, hot + light)
            await service.stop()
            return hot, light

        hot, light = run(scenario())
        light_batches = [task.result().batch for task in light]
        # Round-robin interleaves: the light tenant rides the
        # first batches instead of waiting behind the whole hot backlog.
        assert max(light_batches) <= 1


class TestFastReject:
    def test_silent_capture_answered_without_queueing(
        self, executor, silent_recording
    ):
        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor, clock, fast_reject=QualityConfig()
            )
            await service.start()
            response = await service.submit(
                ScreeningRequest("bad", "clinic", silent_recording)
            )
            await service.stop()
            return response, service.metrics

        response, metrics = run(scenario())
        assert not response.ok
        assert response.verdict == "quarantined"
        assert response.batch == -1
        assert response.outcome.error_type == "QualityRejectedError"
        assert metrics.counter(obs_names.METRIC_SERVE_FAST_REJECTED) == 1
        # Never admitted: no queue space or batch was spent on it.
        assert metrics.counter(obs_names.METRIC_SERVE_ADMITTED) == 0
        assert metrics.counter(obs_names.METRIC_SERVE_BATCHES_DISPATCHED) == 0

    def test_clean_capture_passes_the_gate(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor, clock, fast_reject=QualityConfig()
            )
            await service.start()
            tasks = submit_all(
                service,
                [ScreeningRequest("good", "clinic", serve_recordings[0])],
            )
            await drive(clock, tasks)
            await service.stop()
            return tasks[0].result()

        response = run(scenario())
        assert response.ok
        assert response.batch >= 0

    def resubmit(self, executor, recordings, *, mutate=None, **kwargs):
        """Answer ``recordings`` in turn, each after the previous answer;
        ``mutate(i)`` runs before the ``i``-th submission."""

        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor, clock, fast_reject=QualityConfig(), **kwargs
            )
            await service.start()
            responses = []
            for i, recording in enumerate(recordings):
                if mutate is not None:
                    mutate(i)
                task = asyncio.ensure_future(
                    service.submit(ScreeningRequest(f"r{i}", "clinic", recording))
                )
                await drive(clock, [task])
                responses.append(task.result())
            await service.stop()
            return responses, service

        return run(scenario())

    def test_clean_resubmission_is_gated_once(
        self, executor, serve_recordings, gate_calls
    ):
        capture = serve_recordings[0]
        # The real executor, so both answers come from the pipeline.
        (first, second), service = self.resubmit(
            executor, [capture, capture], runner=None
        )
        assert len(gate_calls) == 1
        assert first.ok and second.ok
        np.testing.assert_equal(
            dataclasses.asdict(second.outcome), dataclasses.asdict(first.outcome)
        )
        assert service.metrics.counter(obs_names.METRIC_SERVE_GATE_MEMO_HITS) == 1

    def test_rejected_resubmission_is_gated_once(
        self, executor, silent_recording, gate_calls
    ):
        (first, second), service = self.resubmit(
            executor, [silent_recording, silent_recording]
        )
        assert len(gate_calls) == 1
        for response in (first, second):
            assert response.batch == -1
            assert response.outcome.error_type == "QualityRejectedError"
        assert second.outcome == first.outcome
        metrics = service.metrics
        assert metrics.counter(obs_names.METRIC_SERVE_FAST_REJECTED) == 2
        assert metrics.counter(obs_names.METRIC_SERVE_GATE_MEMO_HITS) == 1

    def test_relabelled_duration_is_gated_again(
        self, executor, serve_recordings, gate_calls
    ):
        capture = serve_recordings[0]
        relabelled = dataclasses.replace(
            capture, config=dataclasses.replace(capture.config, duration_s=1.0)
        )
        # Same content, so only the expected duration tells them apart.
        assert recording_key(relabelled, "") == recording_key(capture, "")
        (first, second), service = self.resubmit(executor, [capture, relabelled])
        assert len(gate_calls) == 2
        assert first.ok
        assert second.batch == -1
        assert second.outcome.message.endswith("truncated")
        assert service.metrics.counter(obs_names.METRIC_SERVE_GATE_MEMO_HITS) == 0

    def test_waveform_changed_in_place_is_gated_again(
        self, executor, serve_recordings, gate_calls
    ):
        template = serve_recordings[0]
        capture = dataclasses.replace(template, waveform=template.waveform.copy())

        def zero_second(i):
            if i == 1:
                capture.waveform[:] = 0.0

        (first, second), service = self.resubmit(
            executor, [capture, capture], mutate=zero_second
        )
        assert len(gate_calls) == 2
        assert first.ok
        assert second.batch == -1
        assert "no_signal" in second.outcome.message
        assert service.metrics.counter(obs_names.METRIC_SERVE_GATE_MEMO_HITS) == 0

    def test_least_recently_used_verdict_is_evicted_at_the_bound(
        self, executor, serve_recordings, gate_calls, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.service.GATE_MEMO_CAPACITY", 2)
        a, b, c = serve_recordings[:3]
        _, service = self.resubmit(executor, [a, b, c, a, c])
        # ``c`` evicted ``a``, which is gated again; ``c`` is still held.
        assert list(map(id, gate_calls)) == list(map(id, [a, b, c, a]))
        assert len(service._gate_memo) == 2
        assert service.metrics.counter(obs_names.METRIC_SERVE_GATE_MEMO_HITS) == 1


class TestLifecycle:
    def test_submit_before_start_and_after_stop_raises(
        self, executor, serve_recordings
    ):
        async def scenario():
            clock = VirtualClock()
            service = make_service(executor, clock)
            request = ScreeningRequest("r", "clinic", serve_recordings[0])
            with pytest.raises(ServiceStoppedError):
                await service.submit(request)
            await service.start()
            await service.stop()
            with pytest.raises(ServiceStoppedError):
                await service.submit(request)
            return service.metrics

        metrics = run(scenario())
        assert metrics.counter(obs_names.METRIC_SERVE_REJECTED_SHUTDOWN) == 2

    @staticmethod
    async def queue_then_stop(service, recordings):
        """Queue one request per recording and stop before any is dispatched."""
        await service.start()
        tasks = submit_all(
            service,
            [
                ScreeningRequest(f"r{i}", "clinic", recording)
                for i, recording in enumerate(recordings)
            ],
        )
        # One yield runs every submission, and each enqueues; the
        # dispatch loop wakes only after this coroutine's next step.
        await asyncio.sleep(0)
        queued = service._depth
        await service.stop()
        return tasks, queued

    def test_drain_stop_answers_all_queued_work(
        self, executor, serve_recordings
    ):
        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor, clock, max_batch_size=2
            )
            tasks, queued = await self.queue_then_stop(
                service, serve_recordings[:5]
            )
            # Drain ran every batch with no clock advance.
            return tasks, queued, service.metrics

        tasks, queued, metrics = run(scenario())
        assert queued == 5
        assert all(task.done() and task.exception() is None for task in tasks)
        assert metrics.counter(obs_names.METRIC_SERVE_BATCHES_DISPATCHED) == 3

    def test_restarted_service_answers(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            service = make_service(executor, clock)
            answers = []
            for round_no in range(2):
                await service.start()
                tasks = submit_all(
                    service,
                    [ScreeningRequest(f"r{round_no}", "clinic", serve_recordings[0])],
                )
                await drive(clock, tasks)
                answers.append(tasks[0].result())
                await service.stop()
            return answers

        first, second = run(scenario())
        assert first.ok and second.ok
        assert (first.batch, second.batch) == (0, 1)


class TestDispatchFaults:
    def test_crashed_batch_fails_only_its_own_requests(
        self, executor, serve_recordings
    ):
        calls = {"n": 0}

        def flaky_runner(recordings):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("pool exploded")
            from repro.runtime.executor import BatchResult

            from .conftest import fake_processed

            return BatchResult(
                outcomes=[fake_processed(r) for r in recordings]
            )

        async def scenario():
            clock = VirtualClock()
            service = make_service(
                executor,
                clock,
                max_batch_size=2,
                runner=flaky_runner,
            )
            await service.start()
            tasks = submit_all(
                service,
                [
                    ScreeningRequest(f"r{i}", "clinic", serve_recordings[0])
                    for i in range(4)
                ],
            )
            await drive(clock, tasks)
            await service.stop()
            return tasks, service.metrics

        tasks, metrics = run(scenario())
        responses = [task.result() for task in tasks]
        crashed = [r for r in responses if not r.ok]
        survived = [r for r in responses if r.ok]
        assert len(crashed) == 2  # exactly the first batch
        assert all(r.outcome.error_type == "ServiceError" for r in crashed)
        assert "pool exploded" in crashed[0].outcome.message
        assert len(survived) == 2  # the loop kept serving afterwards
        assert metrics.counter(obs_names.METRIC_SERVE_BATCH_FAILURES) == 1
