"""Every documented serve.* telemetry name is emitted by real scenarios.

Mirror of ``tests/obs/test_canonical_names.py`` for the serving layer:
one shared registry (plus a tracer) is driven through the scenarios
that produce each serve counter, histogram, and span family — happy
path, fast-reject and its resubmission, every rejection reason, crashed
batches, and shutdown — then the registry
is checked against ``SERVE_CANONICAL_COUNTERS`` /
``SERVE_CANONICAL_HISTOGRAMS`` so the documented vocabulary cannot
drift from what the service actually emits.  The vocabulary is closed:
every counter is registered, and new tenants add no names.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import Tracer, names, use_tracer
from repro.quality import QualityConfig
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock

from .conftest import run, ticking_runner

#: Every counter name a runtime registry may hold: the executor's, the
#: echo-conditional ones and the service's.
REGISTERED_COUNTERS = (
    names.CANONICAL_COUNTERS
    | names.ECHO_CONDITIONAL_COUNTERS
    | names.SERVE_CANONICAL_COUNTERS
)


@pytest.fixture(scope="module")
def exercised(serve_recordings, silent_recording):
    """(metrics, tracer) after every serve scenario ran."""
    from repro.core.pipeline import EarSonarPipeline
    from repro.runtime.executor import BatchExecutor
    from repro.runtime.metrics import RuntimeMetrics

    tracer = Tracer()
    metrics = RuntimeMetrics()

    async def scenario():
        clock = VirtualClock()

        def submit_all(service, requests):
            return [
                asyncio.ensure_future(service.submit(r)) for r in requests
            ]

        async def drive(clock_, tasks):
            await clock_.advance_until(
                lambda: all(task.done() for task in tasks), step=0.05
            )

        executor = BatchExecutor(EarSonarPipeline(), metrics=metrics)

        # Scenario 1: happy path + fast reject, resubmitted.
        service = ScreeningService(
            executor,
            clock=clock,
            max_batch_size=2,
            fast_reject=QualityConfig(),
            runner=ticking_runner(clock, 0.4),
        )
        await service.start()
        tasks = submit_all(
            service,
            [
                ScreeningRequest(f"ok-{i}", "clinic", rec)
                for i, rec in enumerate(serve_recordings[:4])
            ],
        )
        await drive(clock, tasks)
        fast = await service.submit(
            ScreeningRequest("silent", "clinic", silent_recording)
        )
        assert fast.batch == -1
        # The resubmission is answered from the gate's memo.
        again = await service.submit(
            ScreeningRequest("silent-again", "clinic", silent_recording)
        )
        assert again.batch == -1
        await service.stop()

        # Scenario 2: hard queue-cap rejections.
        tight = ScreeningService(
            executor,
            clock=clock,
            max_queue_depth=1,
            max_batch_size=1,
            runner=ticking_runner(clock, 0.05),
        )
        await tight.start()
        rejected = submit_all(
            tight,
            [
                ScreeningRequest("h-0", "hot", serve_recordings[0]),
                ScreeningRequest("h-1", "hot", serve_recordings[0]),  # full
                ScreeningRequest("q-0", "calm", serve_recordings[0]),  # full
            ],
        )
        await drive(clock, rejected)
        assert any(task.exception() is not None for task in rejected)
        await tight.stop()
        with pytest.raises(Exception):
            await tight.submit(
                ScreeningRequest("late", "calm", serve_recordings[0])
            )  # shutdown rejection

        # Scenario 3: a crashed batch runner.
        def exploding(recordings):
            raise RuntimeError("boom")

        crashy = ScreeningService(
            executor,
            clock=clock,
            max_batch_size=1,
            runner=exploding,
        )
        await crashy.start()
        crashed = submit_all(
            crashy, [ScreeningRequest("c-0", "clinic", serve_recordings[0])]
        )
        await drive(clock, crashed)
        await crashy.stop()

    with use_tracer(tracer):
        run(scenario())
    return metrics, tracer


class TestCanonicalEmission:
    def test_every_documented_serve_counter_is_emitted(self, exercised):
        metrics, _ = exercised
        report = metrics.report()
        missing = {
            name
            for name in names.SERVE_CANONICAL_COUNTERS
            if report["counters"].get(name, 0) <= 0
        }
        assert not missing, f"serve counters never emitted: {sorted(missing)}"

    def test_every_documented_serve_histogram_is_observed(self, exercised):
        metrics, _ = exercised
        report = metrics.report()
        missing = {
            name
            for name in names.SERVE_CANONICAL_HISTOGRAMS
            if report["histograms"].get(name, {}).get("count", 0) <= 0
        }
        assert not missing, f"serve histograms never observed: {sorted(missing)}"

    def test_no_undocumented_serve_counters_leak(self, exercised):
        metrics, _ = exercised
        unknown = set(metrics.report()["counters"]) - REGISTERED_COUNTERS
        assert not unknown, f"undocumented counters: {sorted(unknown)}"

    def test_new_tenants_add_no_metric_names(self, serve_recordings):
        # Tenant ids are caller data: serving twenty more tenants must
        # leave the registry's names exactly as one tenant left them.
        from repro.core.pipeline import EarSonarPipeline
        from repro.runtime.executor import BatchExecutor

        executor = BatchExecutor(EarSonarPipeline())
        seen = []

        async def scenario():
            clock = VirtualClock()
            service = ScreeningService(executor, clock=clock)
            await service.start()
            for tenants in (["t-0"], [f"t-{i}" for i in range(1, 21)]):
                tasks = [
                    asyncio.ensure_future(
                        service.submit(
                            ScreeningRequest(tenant, tenant, serve_recordings[0])
                        )
                    )
                    for tenant in tenants
                ]
                await clock.advance_until(
                    lambda: all(task.done() for task in tasks), step=0.05
                )
                report = executor.metrics.report()
                seen.append((set(report["counters"]), set(report["histograms"])))
            await service.stop()

        run(scenario())
        (counters_1, histograms_1), (counters_21, histograms_21) = seen
        assert counters_21 == counters_1
        assert histograms_21 == histograms_1
        assert counters_1 <= REGISTERED_COUNTERS
        assert histograms_1 <= (
            names.CANONICAL_HISTOGRAMS | names.SERVE_CANONICAL_HISTOGRAMS
        )

    def test_emitted_spans_are_registered(self, exercised):
        _, tracer = exercised

        def walk(spans):
            for span in spans:
                yield span.name
                yield from walk(span.children)

        emitted = set(walk(tracer.traces))
        serve_spans = {name for name in emitted if name.startswith("serve.")}
        assert serve_spans  # the scenarios really traced
        assert emitted <= names.SPAN_NAMES
