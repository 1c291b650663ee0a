"""Order-preserving, fault-isolated batch execution of the pipeline.

``BatchExecutor`` is the execution layer between raw recordings and the
learning stack.  One call fans ``EarSonarPipeline.process`` out across
a process pool (the DSP is CPU-bound, so threads would serialize on the
GIL), consults the feature cache before dispatching anything, and
quarantines per-recording failures instead of crashing the batch.

Three properties are load-bearing and tested:

- **Determinism** — results come back in input order and are
  byte-identical to a serial run: parallelism changes wall-clock, not
  science.
- **Cache-before-dispatch** — lookups happen in the parent, so a fully
  warm cache performs *zero* pipeline calls and dispatches nothing to
  a pool.
- **Fault isolation** — expected signal failures become structured
  :class:`~repro.runtime.faults.FailedRecording` entries; programming
  errors still propagate.

Work is chunked before pickling so each pool task amortizes the cost of
shipping waveforms to a worker; workers rebuild the pipeline once per
(process, config) pair and reuse it across chunks, for as long as the
process lives.

A pool, and so each worker process, lives for one
:meth:`BatchExecutor.run` unless the executor is open: between
:meth:`~BatchExecutor.open` and :meth:`~BatchExecutor.close` (or inside
``with executor:``) every pooled run reuses one pool, so its workers
build their pipelines and plan caches once and keep them.  The
screening service holds its executor open while it runs; batch
callers, which run a few large batches, fork a pool per run.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Sequence, Union

from ..core.config import EarSonarConfig
from ..core.pipeline import EarSonarPipeline
from ..core.results import ProcessedRecording
from ..errors import (
    ConfigurationError,
    ExecutionError,
    TaskTimeoutError,
    WorkerCrashError,
)
from ..obs import names as obs_names
from ..obs.health import NULL_HEALTH, AnyHealth, current_health, use_health
from ..obs.tracer import (
    NULL_TRACER,
    Span,
    TraceContext,
    activate_from_context,
    current_tracer,
    use_tracer,
)
from ..simulation.session import Recording
from .cache import FeatureCache, recording_key
from .chaos import FaultInjector
from .faults import FailedRecording, run_quarantined
from .metrics import RuntimeMetrics

__all__ = ["BatchExecutor", "BatchResult"]

Outcome = Union[ProcessedRecording, FailedRecording]


@dataclass
class BatchResult:
    """Per-recording outcomes of one batch run, in input order."""

    outcomes: list[Outcome] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def processed(self) -> list[ProcessedRecording]:
        """Successful pipeline outputs, in input order."""
        return [o for o in self.outcomes if isinstance(o, ProcessedRecording)]

    @property
    def quarantine(self) -> list[FailedRecording]:
        """Quarantined failures, in input order."""
        return [o for o in self.outcomes if isinstance(o, FailedRecording)]

    @property
    def ok_count(self) -> int:
        """Number of successfully processed recordings."""
        return sum(1 for o in self.outcomes if isinstance(o, ProcessedRecording))

    @property
    def failed_count(self) -> int:
        """Number of quarantined recordings."""
        return len(self.outcomes) - self.ok_count


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Per-worker-process pipeline cache, keyed by config fingerprint, so a
#: worker serving many chunks designs its filters/templates only once.
_WORKER_PIPELINES: dict[str, EarSonarPipeline] = {}

#: The null telemetry scopes :func:`_init_worker` enters, held open for
#: the worker's lifetime (a dropped scope would restore what it reset).
_WORKER_SCOPES = contextlib.ExitStack()


def _init_worker() -> None:
    """Pool initializer: start each worker with null telemetry.

    A forked worker inherits the parent's ambient tracer and health
    monitor as they were at the fork.  Chunks that ask for tracing build
    their own tracer from the shipped context, so an inherited one would
    only collect spans nobody reads, without bound in a worker that
    serves many runs.  Nothing in a worker records health (the parent
    records every outcome's rows when the result comes home), so the
    inherited monitor is dropped only so that no worker holds a stale
    copy of the parent's.
    """
    _WORKER_SCOPES.enter_context(use_tracer(NULL_TRACER))
    _WORKER_SCOPES.enter_context(use_health(NULL_HEALTH))


def _worker_pipeline(config: EarSonarConfig) -> EarSonarPipeline:
    key = config.fingerprint()
    pipeline = _WORKER_PIPELINES.get(key)
    if pipeline is None:
        pipeline = _WORKER_PIPELINES[key] = EarSonarPipeline(config)
    return pipeline


def _traced_run_one(process, index: int, recording: Recording):
    """Run one recording under the ambient tracer's ``recording`` root.

    Returns ``(outcome, stage_latencies_or_None)``.  The single
    per-recording instrumentation point shared by the serial path and
    the pool workers — both build the root span here, so a parallel
    run's adopted trees are structurally identical to a serial run's.
    Root attributes are pure functions of the input and the outcome
    (never of timing or scheduling).
    """
    tracer = current_tracer()
    with tracer.span(
        obs_names.SPAN_RECORDING,
        index=index,
        participant=recording.participant_id,
        day=recording.day,
    ) as span:
        # Quarantining inside the span closes it cleanly (no ``error``
        # attr stamped by __exit__), so the tree is the same in serial
        # and pool runs.
        result = run_quarantined(process, recording)
        if isinstance(result, FailedRecording):
            span.set("outcome", "failed")
            span.set("error_type", result.error_type)
            return result, None
        span.set("outcome", "ok")
    return result


def _process_chunk(
    config: EarSonarConfig,
    chunk: list[tuple[int, Recording]],
    injector: FaultInjector | None = None,
    trace_ctx: TraceContext | None = None,
) -> list[tuple[int, Outcome, object, dict | None]]:
    """Process one chunk in a worker; never raises for expected faults.

    Returns one ``(index, outcome, stage_latencies_or_None,
    span_tree_or_None)`` row per recording; quarantining happens here
    so the parent records serial and parallel outcomes the same way.
    When ``trace_ctx`` asks for tracing, each recording's span tree is
    serialized into its row for the parent to adopt.  That tree is the
    only telemetry a worker sends home: every metric and health row is
    recorded in the parent from the outcome.  An armed
    :class:`FaultInjector` fires *before* its recording is processed —
    crashing the worker, sleeping past the deadline, or raising — so
    the parent's recovery machinery sees the failure exactly where a
    real one would occur.
    """
    process = _worker_pipeline(config).timed_process
    out = []
    with activate_from_context(trace_ctx) as tracer:
        for index, recording in chunk:
            if injector is not None and injector.should_trip(index):
                injector.trip(index)
            outcome, latencies = _traced_run_one(process, index, recording)
            span_dict = (
                tracer.traces[-1].to_dict()
                if tracer is not None and tracer.traces
                else None
            )
            out.append((index, outcome, latencies, span_dict))
    return out


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _record_screening(health: AnyHealth, outcome: Outcome) -> None:
    """One ``health.screenings`` row and one quality SLO sample.

    Recorded for every answer, computed or a cache hit, so the fleet's
    screening and quality figures count what callers received.
    """
    if not health.enabled:
        return
    if isinstance(outcome, FailedRecording):
        health.increment(
            obs_names.HEALTH_SCREENINGS,
            labels={"verdict": "failed", "reason": outcome.error_type},
        )
        health.slo_sample(obs_names.SLO_QUALITY, good=False)
        return
    degraded = bool(outcome.quality_reasons)
    health.increment(
        obs_names.HEALTH_SCREENINGS,
        labels={
            "verdict": "degraded" if degraded else "accepted",
            "reason": outcome.quality_reasons[0] if degraded else "",
        },
    )
    health.slo_sample(obs_names.SLO_QUALITY, good=True)


class BatchExecutor:
    """Run the EarSonar pipeline over many recordings, fast and safely.

    Parameters
    ----------
    pipeline:
        The pipeline to execute (a default one is built when omitted).
        The serial path uses this instance directly; parallel workers
        rebuild an identical pipeline from its config.
    workers:
        Process count.  1 (the default) runs serially in-process, which
        keeps single-study experiments deterministic-by-construction
        and avoids pool startup for small batches.  A run with fewer
        cache misses than workers forks only as many; an open
        executor's pool always has ``workers`` processes.  Fixed at
        construction.
    chunk_size:
        Recordings per pool task.  ``None`` auto-sizes to about four
        chunks per worker, balancing pickling overhead against
        stragglers.
    cache:
        Optional :class:`FeatureCache` consulted before any dispatch.
    metrics:
        Optional :class:`RuntimeMetrics` registry; one is created per
        executor when omitted.
    task_timeout_s:
        Per-pool-task deadline in seconds.  A chunk whose result does
        not arrive in time is quarantined as
        :class:`~repro.errors.TaskTimeoutError` instead of blocking
        the batch forever behind a hung worker.  ``None`` (default)
        waits indefinitely.  Pool path only.
    fault_injector:
        Optional :class:`~repro.runtime.chaos.FaultInjector` armed in
        the workers for chaos tests.  Pool path only — a deliberate
        crash or hang in the serial path would take down the caller.

    Pool lifetime: by default each pooled :meth:`run` forks its own
    pool and shuts it down without waiting.  :meth:`open` (or ``with
    executor:``) keeps one pool from the next pooled run until
    :meth:`close`.  A pool that lost a worker or missed a deadline is
    discarded at the end of its run, its workers killed, and the next
    pooled run starts a new one.  The ``executor.pool_starts`` counter
    counts every pool created.
    """

    def __init__(
        self,
        pipeline: EarSonarPipeline | None = None,
        *,
        workers: int = 1,
        chunk_size: int | None = None,
        cache: FeatureCache | None = None,
        metrics: RuntimeMetrics | None = None,
        task_timeout_s: float | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1 or None, got {chunk_size}"
            )
        if task_timeout_s is not None and not (
            math.isfinite(task_timeout_s) and task_timeout_s > 0
        ):
            raise ConfigurationError(
                f"task_timeout_s must be positive and finite or None, got {task_timeout_s}"
            )
        self._open = False
        self._pool: ProcessPoolExecutor | None = None
        #: The workers this executor forked that may still run, for
        #: close() to wait on: multiprocessing holds each child until it
        #: is reaped, so a weak set drops exactly the ones that ended.
        self._forked: weakref.WeakSet[multiprocessing.process.BaseProcess] = (
            weakref.WeakSet()
        )
        self._workers = workers
        self.pipeline = pipeline or EarSonarPipeline(EarSonarConfig())
        self.chunk_size = chunk_size
        self.cache = cache
        self.metrics = metrics or RuntimeMetrics()
        self.task_timeout_s = task_timeout_s
        self.fault_injector = fault_injector
        if cache is not None and cache.metrics is None:
            # Corruption evictions surface in this executor's report.
            cache.metrics = self.metrics
        self._fingerprint = self.pipeline.config.fingerprint()

    @property
    def workers(self) -> int:
        """Process count (see the class docstring); at least 1."""
        return self._workers

    # -- pool lifetime -------------------------------------------------

    def open(self) -> BatchExecutor:
        """Keep one worker pool, created at the next pooled run, until :meth:`close`."""
        self._open = True
        return self

    def close(self) -> None:
        """Shut the open pool down; return once every worker has exited.

        Covers every process this executor forked, including the pools
        of unopened runs, which shut down without waiting.
        """
        self._open = False
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=True)
        for process in list(self._forked):
            while process.exitcode is None:
                process.join()

    def __enter__(self) -> BatchExecutor:
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API ----------------------------------------------------

    def run(self, recordings: Sequence[Recording]) -> BatchResult:
        """Process every recording, preserving input order.

        Cache hits are resolved first in the parent; only misses are
        executed (serially or on the pool).  The outcome list aligns
        one-to-one with the input sequence.
        """
        recordings = list(recordings)
        t0 = time.perf_counter()
        self.metrics.increment(obs_names.METRIC_RECORDINGS_SUBMITTED, len(recordings))
        outcomes: list[Outcome | None] = [None] * len(recordings)

        misses: list[tuple[int, Recording]] = []
        for index, recording in enumerate(recordings):
            hit = self._cache_lookup(index, recording)
            if hit is not None:
                outcomes[index] = hit
                _record_screening(current_health(), hit)
            else:
                misses.append((index, recording))

        if misses:
            if self._effective_workers(len(misses)) > 1:
                self._run_pool(misses, outcomes)
            else:
                self._run_serial(misses, outcomes)

        ok = sum(1 for o in outcomes if isinstance(o, ProcessedRecording))
        failed = sum(1 for o in outcomes if isinstance(o, FailedRecording))
        self.metrics.increment(obs_names.METRIC_RECORDINGS_OK, ok)
        self.metrics.increment(obs_names.METRIC_RECORDINGS_FAILED, failed)
        self.metrics.observe(obs_names.HIST_BATCH_MS, (time.perf_counter() - t0) * 1e3)
        assert all(o is not None for o in outcomes)
        return BatchResult(outcomes=list(outcomes))

    # -- internals -----------------------------------------------------

    def _cache_lookup(self, index: int, recording: Recording) -> ProcessedRecording | None:
        if self.cache is None:
            return None
        # Lookups always happen in the parent (cache-before-dispatch),
        # so these spans are identical for serial and pool runs.
        with current_tracer().span(obs_names.SPAN_CACHE_LOOKUP, index=index) as span:
            hit = self.cache.get_for(recording, self._fingerprint)
            span.set("hit", hit is not None)
        self.metrics.increment(
            obs_names.METRIC_CACHE_HITS
            if hit is not None
            else obs_names.METRIC_CACHE_MISSES
        )
        return hit

    def _cache_store(self, recording: Recording, processed: ProcessedRecording) -> None:
        if self.cache is not None:
            self.cache.put(recording_key(recording, self._fingerprint), processed)

    def _effective_workers(self, num_misses: int) -> int:
        if self.workers == 1:
            return 1
        if multiprocessing.current_process().daemon:
            # Daemonized processes (e.g. inside another pool) cannot
            # fork children; degrade gracefully instead of crashing.
            self.metrics.increment(obs_names.METRIC_SERIAL_FALLBACK)
            return 1
        if self.fault_injector is not None:
            # Injection arms only on the pool, so a chaos run takes it
            # even for a lone miss.
            return self.workers
        return min(self.workers, num_misses)

    def _record_outcome(
        self,
        index: int,
        recording: Recording,
        outcome: Outcome,
        latencies,
        outcomes: list[Outcome | None],
    ) -> None:
        outcomes[index] = outcome
        self.metrics.increment(obs_names.METRIC_PIPELINE_CALLS)
        # Parent-side fleet-health rollups: the screening row and quality
        # sample every answer gets, then the DSP's own figures (recording
        # time, per-device-model rake taps and calibration offset), which
        # a cache hit does not repeat.  Always in the parent so serial
        # and pool runs record the same rows in the same order, whichever
        # process ran the DSP.
        health = current_health()
        _record_screening(health, outcome)
        if isinstance(outcome, ProcessedRecording):
            if health.enabled:
                if latencies is not None:
                    health.observe(
                        obs_names.HEALTH_RECORDING_MS,
                        latencies.bandpass_ms + latencies.feature_extract_ms,
                    )
                device_model = recording.config.earphone.name
                if outcome.num_reflections_removed > 0:
                    health.increment(
                        obs_names.HEALTH_RAKE_TAPS,
                        outcome.num_reflections_removed,
                        labels={"device_model": device_model},
                    )
                if self.pipeline.config.calibration.enabled:
                    health.observe(
                        obs_names.HEALTH_CALIB_OFFSET_DB,
                        outcome.calibration_offset_db,
                        labels={"device_model": device_model},
                    )
            if outcome.quality_reasons:
                self.metrics.increment(obs_names.METRIC_QUALITY_DEGRADED)
            self.metrics.observe(
                obs_names.HIST_CALIB_OFFSET_DB, outcome.calibration_offset_db
            )
            if outcome.num_reflections_removed > 0:
                self.metrics.increment(
                    obs_names.METRIC_REVERB_TAPS_REMOVED,
                    outcome.num_reflections_removed,
                )
            self._cache_store(recording, outcome)
            if latencies is not None:
                self.metrics.observe(obs_names.HIST_STAGE_BANDPASS_MS, latencies.bandpass_ms)
                self.metrics.observe(obs_names.HIST_STAGE_FEATURES_MS, latencies.feature_extract_ms)
                self.metrics.observe(
                    obs_names.HIST_RECORDING_MS,
                    latencies.bandpass_ms + latencies.feature_extract_ms,
                )

    def _run_serial(
        self, misses: list[tuple[int, Recording]], outcomes: list[Outcome | None]
    ) -> None:
        for index, recording in misses:
            outcome, latencies = _traced_run_one(
                self.pipeline.timed_process, index, recording
            )
            self._record_outcome(index, recording, outcome, latencies, outcomes)

    def _quarantine_chunk(
        self,
        chunk: list[tuple[int, Recording]],
        outcomes: list[Outcome | None],
        exc: BaseException,
    ) -> None:
        """Turn a whole failed pool task into per-recording quarantine."""
        tracer = current_tracer()
        for index, recording in chunk:
            outcomes[index] = FailedRecording(
                participant_id=recording.participant_id,
                day=recording.day,
                error_type=type(exc).__name__,
                message=str(exc),
                true_state=getattr(recording, "state", None),
            )
            # The worker died (or never ran), so no span tree came
            # back; synthesize the root parent-side so the trace still
            # accounts for every submitted recording.
            with tracer.span(
                obs_names.SPAN_RECORDING,
                index=index,
                participant=recording.participant_id,
                day=recording.day,
            ) as span:
                span.set("outcome", "quarantined")
                span.set("error_type", type(exc).__name__)

    def _run_pool(
        self, misses: list[tuple[int, Recording]], outcomes: list[Outcome | None]
    ) -> None:
        workers = self._effective_workers(len(misses))
        chunks = self._chunk(misses, workers)
        self.metrics.increment(obs_names.METRIC_CHUNKS_DISPATCHED, len(chunks))
        by_index = {index: recording for index, recording in misses}
        config = self.pipeline.config
        tracer = current_tracer()
        trace_ctx = TraceContext.capture()
        pool = self._acquire_pool(workers)
        faulted = False
        try:
            futures = [
                pool.submit(_process_chunk, config, chunk, self.fault_injector, trace_ctx)
                for chunk in chunks
            ]
            # Workers exist once the first task is submitted.
            self._forked.update(pool._processes.values())
            for chunk_no, (chunk, future) in enumerate(zip(chunks, futures)):
                try:
                    with tracer.span(
                        obs_names.SPAN_CHUNK, chunk=chunk_no, size=len(chunk)
                    ):
                        rows = future.result(timeout=self.task_timeout_s)
                except FuturesTimeoutError:
                    faulted = True
                    self.metrics.increment(obs_names.METRIC_TIMEOUTS)
                    self._quarantine_chunk(
                        chunk,
                        outcomes,
                        TaskTimeoutError(
                            "pool task missed its "
                            f"{self.task_timeout_s:g}s deadline"
                        ),
                    )
                except BrokenProcessPool as exc:
                    faulted = True
                    self.metrics.increment(obs_names.METRIC_WORKER_FAILURES)
                    self._quarantine_chunk(
                        chunk,
                        outcomes,
                        WorkerCrashError(f"worker process died mid-chunk: {exc}"),
                    )
                except ExecutionError as exc:
                    # Injected faults and classified infrastructure
                    # errors raised inside the worker; anything else
                    # (a genuine programming error) still propagates.
                    self.metrics.increment(obs_names.METRIC_WORKER_FAILURES)
                    self._quarantine_chunk(chunk, outcomes, exc)
                else:
                    for index, outcome, latencies, span_dict in rows:
                        if span_dict is not None:
                            tracer.adopt(Span.from_dict(span_dict))
                        self._record_outcome(
                            index, by_index[index], outcome, latencies, outcomes
                        )
        finally:
            if faulted or pool is not self._pool:
                self._retire(pool, kill=faulted)

    def _acquire_pool(self, workers: int) -> ProcessPoolExecutor:
        """The pool a run dispatches to: the open one, or a new one.

        An open executor keeps one pool of ``self.workers`` processes
        and replaces it only once it is gone or broken (a worker died
        while it sat idle); an unopened executor forks ``workers``
        processes for this run alone.
        """
        if self._pool is not None:
            if not self._pool._broken:
                return self._pool
            self._retire(self._pool, kill=True)
        pool = ProcessPoolExecutor(
            max_workers=self.workers if self._open else workers,
            initializer=_init_worker,
        )
        self.metrics.increment(obs_names.METRIC_POOL_STARTS)
        if self._open:
            self._pool = pool
        return pool

    def _retire(self, pool: ProcessPoolExecutor, *, kill: bool = False) -> None:
        """Shut ``pool`` down without waiting, first killing its workers if asked.

        Never waits: after a timeout a worker may be hung, and blocking
        on it would forfeit the deadline just enforced, so a faulted
        pool's workers are killed instead (a crashed pool's are dead
        already).  :meth:`close` waits for whatever is still exiting.
        """
        if pool is self._pool:
            self._pool = None
        if kill:
            for process in list(pool._processes.values()):
                process.kill()
        pool.shutdown(wait=False, cancel_futures=True)

    def _chunk(
        self, misses: list[tuple[int, Recording]], workers: int
    ) -> list[list[tuple[int, Recording]]]:
        size = self.chunk_size
        if size is None:
            # ~4 chunks per worker: small enough to balance stragglers,
            # large enough to amortize pickling waveforms per task.
            size = max(1, -(-len(misses) // (workers * 4)))
        return [misses[i : i + size] for i in range(0, len(misses), size)]
