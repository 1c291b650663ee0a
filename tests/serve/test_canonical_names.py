"""Every documented serve.* telemetry name is emitted by real scenarios.

Mirror of ``tests/obs/test_canonical_names.py`` for the serving layer:
one shared registry (plus a tracer) is driven through the scenarios
that produce each serve counter, histogram, and span family — happy
path, fast-reject and its resubmission, every rejection reason, crashed
batches, and shutdown — then the registry
is checked against ``SERVE_CANONICAL_COUNTERS`` /
``SERVE_CANONICAL_HISTOGRAMS`` so the documented vocabulary cannot
drift from what the service actually emits.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import Tracer, names, use_tracer
from repro.quality import QualityConfig
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock

from .conftest import run, ticking_runner


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
        report = metrics.report()
        serve_counters = {
            name
            for name in report["counters"]
            if name.startswith("serve.")
            and not name.startswith("serve.tenant.")
        }
        unknown = serve_counters - names.SERVE_CANONICAL_COUNTERS
        assert not unknown, f"undocumented serve counters: {sorted(unknown)}"

    def test_tenant_counters_follow_the_documented_pattern(self, exercised):
        metrics, _ = exercised
        report = metrics.report()
        bases = {
            names.METRIC_TENANT_SUBMITTED,
            names.METRIC_TENANT_COMPLETED,
            names.METRIC_TENANT_REJECTED,
        }
        tenant_counters = {
            name
            for name in report["counters"]
            if name.startswith("serve.tenant.")
        }
        assert tenant_counters, "no per-tenant counters emitted"
        for name in tenant_counters:
            split = names.split_tenant_counter(name)
            assert split is not None, f"undocumented tenant counter: {name}"
            base, tenant = split
            assert base in bases, f"undocumented tenant counter: {name}"
            assert tenant, f"tenant-less tenant counter: {name}"

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
