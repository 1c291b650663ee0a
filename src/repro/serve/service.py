"""The online screening service: admission → batching → dispatch.

:class:`ScreeningService` is the long-lived asyncio front end over the
batch runtime.  A caller submits one :class:`ScreeningRequest` and
awaits one :class:`ScreeningResponse`; between the two, the service

1. **fast-rejects** hopeless captures — when a quality config is set,
   the gate runs *before* admission, so a flat-line or clipped
   recording is answered immediately and never spends queue capacity
   on DSP it would fail anyway.  The gate's report is memoized, so a
   resubmitted capture is answered without the gate's DSP (see *The
   gate memo* below);
2. **admits or refuses** against a hard cap on admitted-but-undispatched
   requests: a full queue raises a typed
   :class:`~repro.errors.AdmissionRejected` (``reason="queue_full"``)
   whose retry-after is the time the backlog takes to drain, never less
   than :data:`RETRY_AFTER_FLOOR_S`;
3. **queues** each admitted request in its tenant's FIFO lane.  The
   lanes that hold work form a round-robin ring, in the order each last
   became non-empty, and a batch takes one request per lane per turn,
   so a backlogged tenant fills at most its turn of each batch while
   another tenant has work queued, and an idle tenant banks nothing;
4. **batches** whatever is queued, up to ``max_batch_size``, whenever
   the dispatch loop is free.  The loop waits only while the queue is
   empty, and dispatches each batch synchronously on the event loop,
   so requests that arrive while a batch runs leave together as the
   next batch and a lone request never waits for co-travellers;
5. **dispatches** each micro-batch through the shared
   :class:`~repro.runtime.executor.BatchExecutor` — the *same* runtime
   the offline path uses, so a served feature vector is bit-identical
   to the batch one.  The service holds the executor open from
   :meth:`~ScreeningService.start` to :meth:`~ScreeningService.stop`,
   so every micro-batch runs on one pool of warm workers.

Every timed decision reads the injected :class:`~repro.serve.clock.Clock`,
so the whole service — backpressure, fairness, latency — runs
unmodified and deterministically under
:class:`~repro.serve.clock.VirtualClock` in tests.

**The gate memo.**  The gate is a pure function of the capture's
waveform and sample rate, its expected duration (the session config's
``duration_s``), the gate's :class:`QualityConfig` and the pipeline's
chirp design.  The service keys each report by
:func:`~repro.runtime.cache.recording_key` over all of them, the same
content hash the feature cache uses, so the memo is exact.  The
duration is in the key because a capture relabelled with a longer
session is truncated where the original is not.  The content is hashed
on every request, never keyed by object identity, so a waveform changed
in place is gated again.  REJECT verdicts are memoized like any other:
the feature cache can hold captures the gate rejects, so a cache hit
says nothing about the gate.  The memo is a least-recently-used map of
at most :data:`GATE_MEMO_CAPACITY` reports, and every hit is counted
under ``serve.gate_memo.hits``; the ``quality.gate`` span is still
opened on a hit, with the memoized verdict and ``memo_hit=True``.

This module is a *boundary*: the dispatch path catches ``Exception``
(QA006-sanctioned, like the executor's quarantine path) because a
crashed batch must fail its own requests' futures with typed
quarantine records, never the service loop or the other tenants.
"""

from __future__ import annotations

import asyncio
import math
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable

from ..errors import (
    AdmissionRejected,
    ConfigurationError,
    QualityRejectedError,
    ServiceStoppedError,
)
from ..core.config import config_fingerprint
from ..obs import names as obs_names
from ..obs.health import current_health
from ..obs.tracer import current_tracer
from ..quality import QualityConfig, QualityReport, assess_recording
from ..quality.assess import _expected_duration_s
from ..runtime.cache import recording_key
from ..runtime.executor import BatchExecutor, BatchResult
from ..runtime.faults import FailedRecording
from ..core.results import ProcessedRecording
from ..simulation.session import Recording
from .clock import Clock, MonotonicClock

__all__ = ["ScreeningRequest", "ScreeningResponse", "ScreeningService"]

#: Batch index assigned to responses answered before batching (the
#: pre-admission quality fast-reject path).
FAST_REJECT_BATCH = -1

#: Most gate reports the service remembers, as many entries as the
#: feature cache's default capacity; the least recently used goes first.
GATE_MEMO_CAPACITY = 4096

#: Least retry-after a ``queue_full`` refusal carries, so a refused
#: caller never busy-loops on a zero hint.
RETRY_AFTER_FLOOR_S = 0.05


@dataclass(frozen=True)
class ScreeningRequest:
    """One screening job: a recording, its tenant, and a caller id."""

    request_id: str
    tenant: str
    recording: Recording


@dataclass
class _Pending:
    """An admitted request waiting in its tenant's lane.

    ``future`` resolves to the service's response; ``admitted_at`` is
    clock time at admission, the start of the queue-wait measurement.
    """

    request: ScreeningRequest
    future: asyncio.Future = field(repr=False)
    admitted_at: float


@dataclass(frozen=True)
class ScreeningResponse:
    """The service's answer to one screening request.

    Attributes
    ----------
    request_id / tenant:
        Echoed from the request.
    outcome:
        Either the pipeline's :class:`ProcessedRecording` (with
        confidence and quality reasons) or a :class:`FailedRecording`
        quarantine record explaining why no screening result exists.
    batch:
        Sequence number of the micro-batch that served the request;
        :data:`FAST_REJECT_BATCH` for quality fast-rejects.
    queue_ms:
        Admission-to-dispatch wait (0.0 for fast-rejects).
    batch_ms:
        Wall time of the serving micro-batch (0.0 for fast-rejects).
    """

    request_id: str
    tenant: str
    outcome: ProcessedRecording | FailedRecording
    batch: int = FAST_REJECT_BATCH
    queue_ms: float = 0.0
    batch_ms: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the pipeline produced a screening result."""
        return isinstance(self.outcome, ProcessedRecording)

    @property
    def confidence(self) -> float | None:
        """Screening confidence, or ``None`` for quarantined requests."""
        return self.outcome.confidence if isinstance(self.outcome, ProcessedRecording) else None

    @property
    def verdict(self) -> str:
        """``"processed"`` or ``"quarantined"`` — the coarse outcome."""
        return "processed" if self.ok else "quarantined"


#: A batch runner: recordings in, per-recording outcomes out.  Defaults
#: to the shared executor's ``run``; tests and the virtual-clock load
#: generator substitute runners that tick a virtual clock to model batch
#: cost.
BatchRunner = Callable[[list[Recording]], BatchResult]


class ScreeningService:
    """Asyncio ingestion layer over a shared :class:`BatchExecutor`.

    Parameters
    ----------
    executor:
        The batch runtime that actually screens recordings.  Its
        metrics registry becomes the service's registry, so ``serve.*``
        counters land next to the executor's own telemetry.
        :meth:`start` opens it and :meth:`stop` closes it.
    clock:
        Time source for every wait and latency measurement.  Defaults
        to :class:`MonotonicClock`; tests pass
        :class:`~repro.serve.clock.VirtualClock`.
    max_queue_depth:
        Hard cap on admitted-but-undispatched requests across all
        tenants; a request that finds the queue full is refused.
    max_batch_size:
        Most requests one micro-batch carries; the rest wait for the
        next.
    fast_reject:
        Optional :class:`QualityConfig`; when set, REJECT-verdict
        captures are answered pre-admission without queueing, and a
        resubmitted capture's verdict comes from the gate memo.
    runner:
        Override for the batch-dispatch callable (testing seam).
    health_interval_s:
        When set (and a fleet-health monitor is ambient), the dispatch
        loop builds a health snapshot at most once per this many clock
        seconds and hands it to ``health_sink``.  A final snapshot is
        always taken at :meth:`stop`.
    health_sink:
        Callable receiving each full health-snapshot dict (the serve
        CLI appends them as JSON lines).  Ignored without
        ``health_interval_s``.
    """

    def __init__(
        self,
        executor: BatchExecutor,
        *,
        clock: Clock | None = None,
        max_queue_depth: int = 256,
        max_batch_size: int = 8,
        fast_reject: QualityConfig | None = None,
        runner: BatchRunner | None = None,
        health_interval_s: float | None = None,
        health_sink: Callable[[dict], None] | None = None,
    ) -> None:
        for name, value in (
            ("max_queue_depth", max_queue_depth),
            ("max_batch_size", max_batch_size),
        ):
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if health_interval_s is not None and not (
            math.isfinite(health_interval_s) and health_interval_s > 0
        ):
            raise ConfigurationError(
                f"health_interval_s must be positive and finite or None, "
                f"got {health_interval_s}"
            )
        self.executor = executor
        self.metrics = executor.metrics
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self._max_queue_depth = max_queue_depth
        self._max_batch_size = max_batch_size
        # The round-robin ring: one FIFO lane per tenant with queued
        # work, in the order each lane last became non-empty.  A lane
        # leaves the ring when it empties, so an idle tenant banks no
        # turns.
        self._lanes: OrderedDict[str, deque[_Pending]] = OrderedDict()
        self._depth = 0
        # Set on every enqueue and at stop; the dispatch loop waits on
        # it only while the queue is empty.
        self._wake = asyncio.Event()
        self._fast_reject = fast_reject
        # The gate's inputs besides the capture are fixed for the
        # service's life, so their fingerprints are taken once.
        self._gate_chirp = executor.pipeline.config.chirp
        self._gate_namespace = (
            ""
            if fast_reject is None
            else config_fingerprint(fast_reject) + config_fingerprint(self._gate_chirp)
        )
        self._gate_memo: OrderedDict[str, QualityReport] = OrderedDict()
        self._runner: BatchRunner = runner if runner is not None else executor.run
        self._dispatch_task: asyncio.Task | None = None
        self._running = False
        self._batch_seq = 0
        self.health_interval_s = health_interval_s
        self.health_sink = health_sink
        self._last_health_at: float | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Begin accepting requests and start the dispatch loop.

        Opens the executor, so every micro-batch until :meth:`stop` runs
        on one worker pool.  A stopped service may be started again.
        """
        if self._running:
            return
        self._running = True
        self.executor.open()
        self._dispatch_task = asyncio.ensure_future(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop accepting requests, answer every admitted one, then close.

        Every admitted request is still batched and answered before the
        dispatch loop exits, so shutdown never strands accepted work.
        The executor's pool is closed last, once no batch can still
        need it.
        """
        if not self._running:
            return
        self._running = False
        self._wake.set()
        if self._dispatch_task is not None:
            await self._dispatch_task
            self._dispatch_task = None
        self.executor.close()
        # Close the health trajectory with one final snapshot so short
        # runs produce at least one sample and alerts resolve on record.
        self._maybe_health_snapshot(force=True)

    # -- submission ----------------------------------------------------

    async def submit(self, request: ScreeningRequest) -> ScreeningResponse:
        """Screen one recording; resolves when its batch completes.

        Raises
        ------
        ServiceStoppedError
            If the service is not accepting (before start / after stop).
        AdmissionRejected
            The queue is at ``max_queue_depth`` (``reason="queue_full"``,
            with a retry-after).
        """
        self.metrics.increment(obs_names.METRIC_SERVE_SUBMITTED)
        self.metrics.increment(
            obs_names.tenant_counter(obs_names.METRIC_TENANT_SUBMITTED, request.tenant)
        )
        if not self._running:
            self.metrics.increment(
                obs_names.SERVE_REJECTION_COUNTERS["shutdown"]
            )
            raise ServiceStoppedError(
                "service is not accepting requests (not started or stopping)"
            )

        fast = self._fast_reject_response(request)
        if fast is not None:
            self.metrics.increment(obs_names.METRIC_SERVE_FAST_REJECTED)
            self.metrics.increment(
                obs_names.tenant_counter(
                    obs_names.METRIC_TENANT_COMPLETED, request.tenant
                )
            )
            health = current_health()
            if health.enabled:
                # A fast-reject is an answered request — the service was
                # available — with its own outcome dimension.
                health.increment(
                    obs_names.HEALTH_REQUESTS,
                    labels={"tenant": request.tenant, "outcome": "fast_rejected"},
                    now=self.clock.now(),
                )
                health.slo_sample(
                    obs_names.SLO_AVAILABILITY, good=True, now=self.clock.now()
                )
            return fast

        self._admit(request)
        self.metrics.increment(obs_names.METRIC_SERVE_ADMITTED)
        pending = _Pending(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            admitted_at=self.clock.now(),
        )
        self._enqueue(pending)
        response: ScreeningResponse = await pending.future
        request_ms = (self.clock.now() - pending.admitted_at) * 1e3
        self.metrics.observe(obs_names.HIST_SERVE_REQUEST_MS, request_ms)
        health = current_health()
        if health.enabled:
            now = self.clock.now()
            health.increment(
                obs_names.HEALTH_REQUESTS,
                labels={
                    "tenant": request.tenant,
                    "outcome": "ok" if response.ok else "quarantined",
                },
                now=now,
            )
            health.observe(
                obs_names.HEALTH_REQUEST_MS,
                request_ms,
                labels={"tenant": request.tenant},
                now=now,
            )
            health.slo_sample(obs_names.SLO_AVAILABILITY, good=True, now=now)
            health.slo_sample(obs_names.SLO_LATENCY, value_ms=request_ms, now=now)
        self.metrics.increment(obs_names.METRIC_SERVE_COMPLETED)
        self.metrics.increment(
            obs_names.tenant_counter(obs_names.METRIC_TENANT_COMPLETED, request.tenant)
        )
        return response

    def _fast_reject_response(
        self, request: ScreeningRequest
    ) -> ScreeningResponse | None:
        """Pre-admission quality gate: answer REJECT captures in place."""
        if self._fast_reject is None:
            return None
        with current_tracer().span(
            obs_names.SPAN_SERVE_ADMISSION, tenant=request.tenant
        ):
            with current_tracer().span(obs_names.SPAN_QUALITY_GATE) as gate:
                report, memo_hit = self._gate(request.recording)
                gate.set("verdict", report.verdict.value)
                gate.set("memo_hit", memo_hit)
                if report.reasons:
                    gate.set("reasons", report.reason_string)
        if not report.rejected:
            return None
        recording = request.recording
        failure = FailedRecording(
            participant_id=recording.participant_id,
            day=recording.day,
            error_type=QualityRejectedError.__name__,
            message=f"quality gate rejected capture: {report.reason_string}",
            true_state=recording.state,
        )
        return ScreeningResponse(
            request_id=request.request_id,
            tenant=request.tenant,
            outcome=failure,
        )

    def _gate(self, recording: Recording) -> tuple[QualityReport, bool]:
        """The gate's report on ``recording``, and whether the memo held it.

        The key hashes the waveform on every call and covers every
        other input the gate reads (see the module docstring), so a hit
        is the report :func:`assess_recording` would return.
        """
        namespace = f"{self._gate_namespace}:{_expected_duration_s(recording)!r}"
        key = recording_key(recording, namespace)
        report = self._gate_memo.get(key)
        if report is not None:
            self._gate_memo.move_to_end(key)
            self.metrics.increment(obs_names.METRIC_SERVE_GATE_MEMO_HITS)
            return report, True
        report = assess_recording(recording, self._gate_chirp, self._fast_reject)
        self._gate_memo[key] = report
        while len(self._gate_memo) > GATE_MEMO_CAPACITY:
            self._gate_memo.popitem(last=False)
        return report, False

    def _admit(self, request: ScreeningRequest) -> None:
        """Refuse the request if the queue is at ``max_queue_depth``.

        The refusal is counted and recorded in fleet health before the
        typed :class:`AdmissionRejected` is raised.
        """
        depth = self._depth
        if depth < self._max_queue_depth:
            return
        rejection = AdmissionRejected(
            f"request queue at capacity ({depth}/{self._max_queue_depth})",
            reason="queue_full",
            retry_after_s=max(RETRY_AFTER_FLOOR_S, self._estimated_wait_ms() / 1e3),
        )
        self.metrics.increment(obs_names.SERVE_REJECTION_COUNTERS[rejection.reason])
        self.metrics.increment(
            obs_names.tenant_counter(obs_names.METRIC_TENANT_REJECTED, request.tenant)
        )
        health = current_health()
        if health.enabled:
            now = self.clock.now()
            health.increment(
                obs_names.HEALTH_REQUESTS,
                labels={"tenant": request.tenant, "outcome": "rejected"},
                now=now,
            )
            health.slo_sample(obs_names.SLO_AVAILABILITY, good=False, now=now)
        raise rejection

    def _estimated_wait_ms(self) -> float:
        """Time the queued backlog takes to drain, in milliseconds.

        Backlog expressed in whole micro-batches, each costing the
        observed p95 batch latency; zero until the first batch has been
        timed.  Read only to size a full queue's retry-after.
        """
        p95 = self.metrics.histogram(obs_names.HIST_SERVE_BATCH_MS).percentile(95.0)
        return math.ceil(self._depth / self._max_batch_size) * p95

    def _enqueue(self, pending: _Pending) -> None:
        """Append an admitted request to its tenant's lane; wake the loop."""
        tenant = pending.request.tenant
        lane = self._lanes.get(tenant)
        if lane is None:
            # The lane was empty: it joins the ring at the tail.
            lane = self._lanes[tenant] = deque()
        lane.append(pending)
        self._depth += 1
        self._wake.set()

    def _take_batch(self) -> list[_Pending]:
        """Up to ``max_batch_size`` queued requests in round-robin order.

        Each turn serves the lane at the head of the ring once and moves
        it to the tail if it still has work.
        """
        batch: list[_Pending] = []
        while self._lanes and len(batch) < self._max_batch_size:
            tenant, lane = self._lanes.popitem(last=False)
            batch.append(lane.popleft())
            if lane:
                self._lanes[tenant] = lane
        self._depth -= len(batch)
        return batch

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Dispatch micro-batches until the service is stopped and drained.

        Waits only while the queue is empty; otherwise takes whatever
        is queued, up to ``max_batch_size``, without suspending.
        """
        while True:
            while not self._lanes:
                if not self._running:
                    return
                self._wake.clear()
                await self._wake.wait()
            self._dispatch(self._take_batch())
            # Taking a batch does not suspend while work is queued, so
            # yield once: the callers this batch answered resume now, at
            # its end, not after the whole backlog has been dispatched.
            await self.clock.sleep(0)

    def _dispatch(self, batch: list[_Pending]) -> None:
        """Run one micro-batch and resolve its futures."""
        seq = self._batch_seq
        self._batch_seq += 1
        start = self.clock.now()
        for pending in batch:
            self.metrics.observe(
                obs_names.HIST_SERVE_QUEUE_MS,
                (start - pending.admitted_at) * 1e3,
            )
        recordings = [pending.request.recording for pending in batch]
        tracer = current_tracer()
        error: Exception | None = None
        result: BatchResult | None = None
        with tracer.span(obs_names.SPAN_SERVE_BATCH, batch=seq, size=len(batch)):
            try:
                result = self._runner(recordings)
            except Exception as exc:  # boundary: a crashed batch fails
                error = exc  # its own requests, never the service loop
        batch_ms = (self.clock.now() - start) * 1e3
        self.metrics.observe(obs_names.HIST_SERVE_BATCH_MS, batch_ms)
        self.metrics.increment(obs_names.METRIC_SERVE_BATCHES_DISPATCHED)
        if error is not None or result is None or len(result.outcomes) != len(batch):
            self.metrics.increment(obs_names.METRIC_SERVE_BATCH_FAILURES)
            message = (
                f"batch runner failed: {type(error).__name__}: {error}"
                if error is not None
                else "batch runner returned a result of the wrong length"
            )
            self._fail_batch(batch, seq, batch_ms, message)
        else:
            for pending, outcome in zip(batch, result.outcomes):
                self._resolve(pending, outcome, seq, batch_ms)
        self._maybe_health_snapshot()

    def _maybe_health_snapshot(self, force: bool = False) -> None:
        """Periodic health snapshot, handed to ``health_sink``.

        Runs at most once per ``health_interval_s`` of the injected
        clock, between batches (never on the request path), so a soak
        run leaves a whole health trajectory behind.
        """
        if self.health_interval_s is None:
            return
        health = current_health()
        if not health.enabled:
            return
        now = self.clock.now()
        if (
            not force
            and self._last_health_at is not None
            and now - self._last_health_at < self.health_interval_s
        ):
            return
        self._last_health_at = now
        # Taken even without a sink: the snapshot evaluates the SLOs,
        # stamping alert transitions with this clock reading.
        snapshot = health.snapshot(now)
        if self.health_sink is not None:
            self.health_sink(snapshot)

    def _fail_batch(
        self, batch: list[_Pending], seq: int, batch_ms: float, message: str
    ) -> None:
        """Answer every request of a crashed batch with a quarantine record."""
        for pending in batch:
            recording = pending.request.recording
            self._resolve(
                pending,
                FailedRecording(
                    participant_id=recording.participant_id,
                    day=recording.day,
                    error_type="ServiceError",
                    message=message,
                    true_state=recording.state,
                ),
                seq,
                batch_ms,
            )

    def _resolve(
        self,
        pending: _Pending,
        outcome: ProcessedRecording | FailedRecording,
        seq: int,
        batch_ms: float,
    ) -> None:
        if pending.future.done():  # pragma: no cover - cancelled caller
            return
        pending.future.set_result(
            ScreeningResponse(
                request_id=pending.request.request_id,
                tenant=pending.request.tenant,
                outcome=outcome,
                batch=seq,
                queue_ms=(self.clock.now() - pending.admitted_at) * 1e3 - batch_ms,
                batch_ms=batch_ms,
            )
        )
