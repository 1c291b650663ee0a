"""One input, one answer: every execution path returns the same result.

The same short captures run through nine paths — the direct pipeline,
``BatchExecutor`` serial and pooled, a second run on an open pool's
warm workers, a memory-cache hit, a disk-cache hit read by a fresh
``FeatureCache``, and ``ScreeningService`` on a virtual clock, in
process with micro-batches of two and of one, and on the two-worker
pool it holds open — under three configs: the default, rake + calibration on reverberant captures from
a drifting device, and non-finite sanitizing on captures damaged by
each faultlab model.  Every outcome must agree with the direct
pipeline's: each ``ProcessedRecording`` field, arrays byte for byte,
and each quarantine's ``FailedRecording`` (error type and message
included).

Clean captures must all process: the direct pipeline raises otherwise,
and since every path must return the same outcome type, each of their
serve responses is ok and each second run is all cache hits.

A service gating admission with ``fast_reject`` answers every capture
twice, in process and on the pool, the second time from its memo of
gate verdicts.  Both answers must equal the gated direct outcome: the
gate's quarantine where it rejects, the direct outcome elsewhere.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.acoustics.reverb import ReverbConfig
from repro.core.config import CalibrationConfig, EarSonarConfig, RobustnessConfig
from repro.core.pipeline import EarSonarPipeline
from repro.core.results import ProcessedRecording
from repro.errors import QualityRejectedError, SignalProcessingError
from repro.faultlab import apply_to_recording, fault_catalog
from repro.obs import names as obs_names
from repro.quality import QualityConfig, assess_recording
from repro.runtime import BatchExecutor, FeatureCache, RuntimeMetrics
from repro.runtime.executor import Outcome
from repro.runtime.faults import FailedRecording
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock
from repro.simulation import sample_participant
from repro.simulation.calibration import CalibrationDriftConfig
from repro.simulation.session import SessionConfig, record_session

#: The drift and capture construction of the echo/calibration pipeline
#: tests: a 6 dB gain drift reached within one session.
DRIFT = CalibrationDriftConfig(
    enabled=True, gain_drift_db=6.0, tilt_drift_db=0.0, horizon_sessions=1
)

#: Name -> (pipeline config, session, fault models).  A config without
#: fault models screens three clean captures; one with them screens one
#: capture damaged by each model, and a quarantine is a valid outcome.
CONFIGS = {
    "default": (EarSonarConfig(), SessionConfig(duration_s=0.1), None),
    "reverb_calibration": (
        EarSonarConfig(
            reverb=ReverbConfig(enabled=True),
            calibration=CalibrationConfig(enabled=True),
        ),
        SessionConfig(
            duration_s=0.1,
            reverb=ReverbConfig(enabled=True, strength=2.0),
            calibration=DRIFT,
            device_unit=5,
        ),
        None,
    ),
    "robustness": (
        EarSonarConfig(robustness=RobustnessConfig(sanitize_nonfinite=True)),
        SessionConfig(duration_s=0.1),
        fault_catalog(2.0),
    ),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def case(request):
    """``(pipeline, captures, direct outcomes)`` for one config."""
    config, session, faults = CONFIGS[request.param]
    participant = sample_participant(np.random.default_rng(202), "P777")
    rng = np.random.default_rng(29)
    pipeline = EarSonarPipeline(config)
    if faults is None:
        captures = [
            record_session(participant, day, session, rng) for day in (2.0, 9.0, 16.0)
        ]
        return pipeline, captures, [pipeline.process(c) for c in captures]
    captures = [
        apply_to_recording(record_session(participant, day, session, rng), model, rng)
        for day, model in enumerate(faults.values(), start=2)
    ]
    return pipeline, captures, [_process_or_quarantine(pipeline, c) for c in captures]


def _process_or_quarantine(pipeline, capture) -> Outcome:
    """The pipeline's result, or the quarantine record the runtime makes."""
    try:
        return pipeline.process(capture)
    except SignalProcessingError as exc:
        return FailedRecording(
            participant_id=capture.participant_id,
            day=capture.day,
            error_type=type(exc).__name__,
            message=str(exc),
            true_state=capture.state,
        )


def _serial(pipeline, captures, tmp_path):
    return BatchExecutor(pipeline, workers=1).run(captures).outcomes


def _pool(pipeline, captures, tmp_path):
    metrics = RuntimeMetrics()
    result = BatchExecutor(pipeline, workers=2, metrics=metrics).run(captures)
    assert metrics.counter(obs_names.METRIC_CHUNKS_DISPATCHED) > 0
    return result.outcomes


def _open_pool(pipeline, captures, tmp_path):
    metrics = RuntimeMetrics()
    with BatchExecutor(pipeline, workers=2, metrics=metrics) as executor:
        executor.run(captures)
        # The second run is on warm workers, which keep their pipelines.
        result = executor.run(captures)
    assert metrics.counter(obs_names.METRIC_POOL_STARTS) == 1
    assert metrics.counter(obs_names.METRIC_CHUNKS_DISPATCHED) > 0
    return result.outcomes


def _cached(pipeline, captures, cache: FeatureCache) -> list[Outcome]:
    metrics = RuntimeMetrics()
    result = BatchExecutor(pipeline, cache=cache, metrics=metrics).run(captures)
    # Quarantines are never cached, so only they reach the pipeline again;
    # on a clean config that means all hits and no pipeline call.
    assert metrics.counter(obs_names.METRIC_CACHE_HITS) == result.ok_count
    assert metrics.counter(obs_names.METRIC_PIPELINE_CALLS) == result.failed_count
    return result.outcomes


def _memory_hit(pipeline, captures, tmp_path):
    cache = FeatureCache()
    BatchExecutor(pipeline, cache=cache).run(captures)
    return _cached(pipeline, captures, cache)


def _disk_hit(pipeline, captures, tmp_path):
    BatchExecutor(pipeline, cache=FeatureCache(directory=tmp_path)).run(captures)
    return _cached(pipeline, captures, FeatureCache(directory=tmp_path))


def _serve(pipeline, captures, tmp_path):
    async def scenario():
        clock = VirtualClock()
        service = ScreeningService(
            BatchExecutor(pipeline),
            clock=clock,
            max_batch_size=2,
        )
        await service.start()
        tasks = [
            asyncio.ensure_future(
                service.submit(ScreeningRequest(f"req-{i}", "clinic", capture))
            )
            for i, capture in enumerate(captures)
        ]
        await clock.advance_until(lambda: all(task.done() for task in tasks))
        await service.stop()
        return [task.result() for task in tasks]

    return [response.outcome for response in asyncio.run(scenario())]


def _serve_singles(pipeline, captures, tmp_path):
    """The service with one capture per micro-batch: where the batch
    boundaries fall must not change any result."""

    async def scenario():
        clock = VirtualClock()
        service = ScreeningService(
            BatchExecutor(pipeline),
            clock=clock,
            max_batch_size=1,
        )
        await service.start()
        tasks = [
            asyncio.ensure_future(
                service.submit(ScreeningRequest(f"req-{i}", "clinic", capture))
            )
            for i, capture in enumerate(captures)
        ]
        await clock.advance_until(lambda: all(task.done() for task in tasks))
        await service.stop()
        return [task.result() for task in tasks]

    responses = asyncio.run(scenario())
    assert len({response.batch for response in responses}) == len(captures)
    return [response.outcome for response in responses]


def _serve_pool(pipeline, captures, tmp_path):
    """The service on a two-worker pool: every capture is sent twice, so
    each micro-batch of two goes to the pool the service holds open."""
    metrics = RuntimeMetrics()

    async def scenario():
        clock = VirtualClock()
        service = ScreeningService(
            BatchExecutor(pipeline, workers=2, metrics=metrics),
            clock=clock,
            max_batch_size=2,
        )
        await service.start()
        tasks = [
            asyncio.ensure_future(
                service.submit(ScreeningRequest(f"req-{i}", "clinic", capture))
            )
            for i, capture in enumerate(captures + captures)
        ]
        await clock.advance_until(lambda: all(task.done() for task in tasks))
        await service.stop()
        return [task.result() for task in tasks]

    responses = asyncio.run(scenario())
    assert len({response.batch for response in responses}) >= 2
    assert metrics.counter(obs_names.METRIC_POOL_STARTS) == 1
    first, second = responses[: len(captures)], responses[len(captures) :]
    for again, once in zip(second, first):
        assert_same_result(again.outcome, once.outcome)
    return [response.outcome for response in second]


PATHS = {
    "serial": _serial,
    "pool": _pool,
    "open_pool": _open_pool,
    "memory_hit": _memory_hit,
    "disk_hit": _disk_hit,
    "serve": _serve,
    "serve_singles": _serve_singles,
    "serve_pool": _serve_pool,
}


#: The admission gate of the gated service paths.
GATE = QualityConfig()


def _gated_direct(pipeline, capture, direct: Outcome) -> Outcome:
    """The quarantine the gate makes of ``capture``, else ``direct``."""
    report = assess_recording(capture, pipeline.config.chirp, GATE)
    if not report.rejected:
        return direct
    return FailedRecording(
        participant_id=capture.participant_id,
        day=capture.day,
        error_type=QualityRejectedError.__name__,
        message=f"quality gate rejected capture: {report.reason_string}",
        true_state=capture.state,
    )


def _serve_gated(pipeline, captures, workers):
    """The gated service's first and second answers to every capture;
    each capture is resubmitted after its first answer."""
    metrics = RuntimeMetrics()

    async def scenario():
        clock = VirtualClock()
        service = ScreeningService(
            BatchExecutor(pipeline, workers=workers, metrics=metrics),
            clock=clock,
            max_batch_size=2,
            fast_reject=GATE,
        )
        await service.start()
        rounds = []
        for attempt in ("first", "second"):
            tasks = [
                asyncio.ensure_future(
                    service.submit(
                        ScreeningRequest(f"{attempt}-{i}", "clinic", capture)
                    )
                )
                for i, capture in enumerate(captures)
            ]
            await clock.advance_until(lambda: all(task.done() for task in tasks))
            rounds.append([task.result().outcome for task in tasks])
        await service.stop()
        return rounds

    rounds = asyncio.run(scenario())
    assert metrics.counter(obs_names.METRIC_SERVE_GATE_MEMO_HITS) == len(captures)
    return rounds


def assert_same_result(actual: Outcome, expected: Outcome):
    assert type(actual) is type(expected)
    for f in dataclasses.fields(expected):
        a, e = getattr(actual, f.name), getattr(expected, f.name)
        if isinstance(e, np.ndarray):
            assert a.dtype == e.dtype, f.name
            assert a.tobytes() == e.tobytes(), f.name
        else:
            assert a == e, f.name


@pytest.mark.parametrize("path", sorted(PATHS))
def test_path_matches_the_direct_pipeline(case, path, tmp_path):
    pipeline, captures, direct = case
    results = PATHS[path](pipeline, captures, tmp_path)
    assert len(results) == len(direct)
    for actual, expected in zip(results, direct):
        assert_same_result(actual, expected)


@pytest.mark.parametrize("workers", [1, 2], ids=["in_process", "pool"])
def test_gated_resubmission_matches_the_gated_direct_path(case, workers):
    pipeline, captures, direct = case
    expected = [_gated_direct(pipeline, c, d) for c, d in zip(captures, direct)]
    for answers in _serve_gated(pipeline, captures, workers):
        assert len(answers) == len(expected)
        for actual, gated in zip(answers, expected):
            assert_same_result(actual, gated)


@pytest.mark.parametrize("case", ["reverb_calibration"], indirect=True)
def test_reverb_calibration_case_is_not_vacuous(case):
    _, _, direct = case
    assert all(p.num_reflections_removed > 0 for p in direct)
    assert all(p.calibration_offset_db != 0.0 for p in direct)


@pytest.mark.parametrize("case", ["robustness"], indirect=True)
def test_robustness_case_is_not_vacuous(case):
    pipeline, captures, direct = case
    quarantined = [o for o in direct if isinstance(o, FailedRecording)]
    sanitized = [
        o
        for o in direct
        if isinstance(o, ProcessedRecording) and "non_finite" in o.quality_reasons
    ]
    assert [o.error_type for o in quarantined] == ["NoEchoFoundError"]
    assert len(sanitized) == 1 and sanitized[0].confidence < 1.0
    # The gated paths resubmit both verdicts: the gate rejects clipping
    # and truncation, and every other capture processes.
    gated = [_gated_direct(pipeline, c, d) for c, d in zip(captures, direct)]
    rejected = [o for o in gated if isinstance(o, FailedRecording)]
    assert [o.error_type for o in rejected] == ["QualityRejectedError"] * 2
