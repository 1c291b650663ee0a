"""Clean-path equivalence: served results are bit-identical to batch runs.

The service is an ingestion layer, not a second science path — the
same recordings through ``ScreeningService`` and ``BatchExecutor.run``
must produce byte-identical features, response curves, and verdicts,
and a second service reading the first one's disk cache must hand back
the same arrays.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.pipeline import EarSonarPipeline
from repro.obs.names import METRIC_CACHE_HITS
from repro.runtime.cache import FeatureCache
from repro.runtime.executor import BatchExecutor
from repro.runtime.metrics import RuntimeMetrics
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock

from .conftest import run


async def serve_all(service, clock, recordings):
    await service.start()
    tasks = [
        asyncio.ensure_future(
            service.submit(ScreeningRequest(f"req-{i}", "clinic", recording))
        )
        for i, recording in enumerate(recordings)
    ]
    await clock.advance_until(lambda: all(task.done() for task in tasks))
    await service.stop()
    return [task.result() for task in tasks]


def fresh_executor(**kwargs) -> BatchExecutor:
    return BatchExecutor(EarSonarPipeline(), metrics=RuntimeMetrics(), **kwargs)


class TestResultEquivalence:
    def test_served_outcomes_match_direct_batch_run_bitwise(self, serve_recordings):
        direct = fresh_executor().run(list(serve_recordings))

        async def scenario():
            clock = VirtualClock()
            service = ScreeningService(
                fresh_executor(),
                clock=clock,
                max_batch_size=2,
            )
            return await serve_all(service, clock, serve_recordings)

        responses = run(scenario())
        served = {r.request_id: r.outcome for r in responses}
        assert len(served) == len(direct.outcomes)
        for i, expected in enumerate(direct.outcomes):
            outcome = served[f"req-{i}"]
            assert outcome.participant_id == expected.participant_id
            assert np.array_equal(outcome.features, expected.features)
            assert np.array_equal(outcome.curve, expected.curve)
            assert outcome.confidence == expected.confidence

    def test_sharded_cache_round_trip_preserves_features(
        self, serve_recordings, tmp_path
    ):
        """A second service rehydrates from the disk tier the first wrote.

        The disk tier is the flat ``FeatureCache`` directory (the sharded
        tier folded into it); each service gets a fresh cache over it, so
        every hit of the second is a read from disk.
        """

        def serve_with_cache():
            async def scenario():
                clock = VirtualClock()
                cache = FeatureCache(directory=tmp_path / "cache")
                service = ScreeningService(
                    fresh_executor(cache=cache),
                    clock=clock,
                    max_batch_size=3,
                )
                responses = await serve_all(service, clock, serve_recordings)
                return responses, service.metrics

            return run(scenario())

        first, _ = serve_with_cache()
        second, metrics = serve_with_cache()
        assert metrics.counter(METRIC_CACHE_HITS) > 0
        by_id_first = {r.request_id: r.outcome for r in first}
        for response in second:
            expected = by_id_first[response.request_id]
            assert np.array_equal(response.outcome.features, expected.features)
            assert np.array_equal(response.outcome.curve, expected.curve)
