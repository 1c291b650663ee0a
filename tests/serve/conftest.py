"""Fixtures for the serving test suite.

Everything here is built for *virtual-time* testing: services run on a
:class:`~repro.serve.clock.VirtualClock`, batch work is modelled by
stub runners that tick the clock instead of sleeping, and the whole
suite finishes without one real sleep.  ``asyncio.run`` drives each
test's coroutine directly (no async test plugin needed).
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Awaitable, Callable, Sequence, TypeVar

import numpy as np
import pytest

from repro.core.pipeline import EarSonarPipeline
from repro.core.results import ProcessedRecording
from repro.runtime.executor import BatchExecutor, BatchResult
from repro.runtime.metrics import RuntimeMetrics
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock
from repro.simulation.participant import sample_participant
from repro.simulation.session import Recording, SessionConfig, record_session

T = TypeVar("T")


def run(coro: Awaitable[T]) -> T:
    """Drive one async test body to completion on a fresh event loop."""
    return asyncio.run(coro)  # type: ignore[arg-type]


@pytest.fixture
def clock() -> VirtualClock:
    """Fresh virtual clock starting at t=0."""
    return VirtualClock()


@pytest.fixture(scope="module")
def serve_recordings() -> list[Recording]:
    """Six short seeded captures across two participants and days."""
    rng = np.random.default_rng(424242)
    config = SessionConfig(duration_s=0.1)
    recordings = []
    for pid in ("P001", "P002"):
        participant = sample_participant(rng, pid)
        for day in (0.5, 8.5, 19.5):
            recordings.append(record_session(participant, day, config, rng))
    return recordings


@pytest.fixture(scope="module")
def silent_recording(serve_recordings) -> Recording:
    """A flat-line capture the quality gate must fast-reject."""
    template = serve_recordings[0]
    return Recording(
        waveform=np.zeros_like(template.waveform),
        sample_rate=template.sample_rate,
        participant_id="P666",
        day=1.0,
        state=template.state,
        config=template.config,
    )


@pytest.fixture
def executor() -> BatchExecutor:
    """Serial executor with its own metrics registry (no disk cache)."""
    return BatchExecutor(EarSonarPipeline(), metrics=RuntimeMetrics())


def fake_processed(recording: Recording) -> ProcessedRecording:
    """A cheap, deterministic stand-in for a pipeline output."""
    return ProcessedRecording(
        features=np.full(105, float(recording.day)),
        curve=np.linspace(0.0, 1.0, 16),
        mean_segment=np.zeros(8),
        segment_rate=recording.sample_rate,
        num_events=4,
        num_echoes=4,
        participant_id=recording.participant_id,
        day=recording.day,
        true_state=recording.state,
    )


def ticking_runner(
    clock: VirtualClock, cost_s: float
) -> Callable[[list[Recording]], BatchResult]:
    """A stub batch runner whose 'work' is a virtual-clock tick.

    Under virtual time the service's batch latency measurement is
    ``clock.now()`` deltas, so a runner that ticks the clock by
    ``cost_s`` models "this batch took that long" exactly.
    """

    def _run(recordings: list[Recording]) -> BatchResult:
        clock.tick(cost_s)
        return BatchResult(outcomes=[fake_processed(r) for r in recordings])

    return _run


def logging_runner(
    clock: VirtualClock, cost_s: float, log: list[tuple[float, list[str]]]
) -> Callable[[list[Recording]], BatchResult]:
    """:func:`ticking_runner` that also logs each batch as it starts.

    Each entry is ``(clock time, participant ids in batch order)``, so a
    test that gives every request its own participant id reads batch
    composition and dispatch time straight off ``log``.
    """
    run_batch = ticking_runner(clock, cost_s)

    def _run(recordings: list[Recording]) -> BatchResult:
        log.append((clock.now(), [r.participant_id for r in recordings]))
        return run_batch(recordings)

    return _run


def batch_log(
    executor: BatchExecutor,
    template: Recording,
    phases: Sequence[Sequence[tuple[str, str]]],
    **service_kwargs,
) -> list[tuple[float, list[str]]]:
    """Serve ``(tenant, name)`` arrivals and return the batch log.

    Each phase's requests are submitted together, once every earlier
    phase is answered; request ``name`` carries ``template`` relabelled
    with participant id ``name``.  The service runs on a fresh
    :class:`VirtualClock` with a zero-cost :func:`logging_runner`.
    """
    log: list[tuple[float, list[str]]] = []

    async def scenario():
        clock = VirtualClock()
        service = ScreeningService(
            executor,
            clock=clock,
            runner=logging_runner(clock, 0.0, log),
            **service_kwargs,
        )
        await service.start()
        for arrivals in phases:
            tasks = [
                asyncio.ensure_future(
                    service.submit(
                        ScreeningRequest(
                            name,
                            tenant,
                            dataclasses.replace(template, participant_id=name),
                        )
                    )
                )
                for tenant, name in arrivals
            ]
            await clock.advance_until(lambda: all(task.done() for task in tasks))
            for task in tasks:
                task.result()
        await service.stop()

    run(scenario())
    return log
