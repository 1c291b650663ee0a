"""Canonical telemetry names: the single registry of spans and metrics.

Every span the tracer opens and every counter/histogram the runtime
records is named by a constant defined here.  Centralizing the vocabulary buys three things:

- dashboards and trace tooling can rely on stable names (renaming a
  stage is a reviewed change to this module, not a drive-by string
  edit);
- the QA007 lint rule can enforce that library code never invents span
  names inline — a literal string passed to ``.span()`` outside a
  ``__main__`` module is a finding;
- the canonical-emission test can assert that every documented metric
  name is actually produced by an end-to-end batch run, so the
  :class:`~repro.runtime.metrics.RuntimeMetrics` docstring cannot
  drift from reality.

Names are dotted, lowercase, and grouped by subsystem prefix
(``stage.``, ``cache.``, ``executor.``, ``quality.``,
``recordings.``, ``serve.``); histogram names carry their unit as a
suffix (``_ms``).

The online service (:mod:`repro.serve`) has its own canonical sets
(``SERVE_CANONICAL_COUNTERS`` / ``SERVE_CANONICAL_HISTOGRAMS``),
asserted by the serving end-to-end emission suite.  No name carries
caller data: per-tenant traffic is the ``tenant`` label of
``health.requests`` and ``health.request_ms``, whose values the health
tier budgets.
"""

from __future__ import annotations

__all__ = [
    "SPAN_RECORDING",
    "SPAN_QUALITY_GATE",
    "SPAN_CACHE_LOOKUP",
    "SPAN_CHUNK",
    "SPAN_STAGE_BANDPASS",
    "SPAN_STAGE_EVENTS",
    "SPAN_STAGE_PARITY",
    "SPAN_STAGE_SPECTRUM",
    "SPAN_STAGE_FEATURES",
    "SPAN_STAGE_MFCC",
    "SPAN_STAGE_RAKE",
    "SPAN_STAGE_CALIBRATION",
    "SPAN_NAMES",
    "STAGE_SPAN_NAMES",
    "METRIC_RECORDINGS_SUBMITTED",
    "METRIC_RECORDINGS_OK",
    "METRIC_RECORDINGS_FAILED",
    "METRIC_PIPELINE_CALLS",
    "METRIC_CACHE_HITS",
    "METRIC_CACHE_MISSES",
    "METRIC_CACHE_CORRUPT",
    "METRIC_CHUNKS_DISPATCHED",
    "METRIC_SERIAL_FALLBACK",
    "METRIC_TIMEOUTS",
    "METRIC_WORKER_FAILURES",
    "METRIC_POOL_STARTS",
    "METRIC_QUALITY_DEGRADED",
    "METRIC_REVERB_TAPS_REMOVED",
    "HIST_RECORDING_MS",
    "HIST_STAGE_BANDPASS_MS",
    "HIST_STAGE_FEATURES_MS",
    "HIST_BATCH_MS",
    "HIST_CALIB_OFFSET_DB",
    "CANONICAL_COUNTERS",
    "CANONICAL_HISTOGRAMS",
    "ECHO_CONDITIONAL_COUNTERS",
    "SPAN_SERVE_ADMISSION",
    "SPAN_SERVE_BATCH",
    "METRIC_SERVE_SUBMITTED",
    "METRIC_SERVE_ADMITTED",
    "METRIC_SERVE_COMPLETED",
    "METRIC_SERVE_FAST_REJECTED",
    "METRIC_SERVE_GATE_MEMO_HITS",
    "METRIC_SERVE_REJECTED_QUEUE_FULL",
    "METRIC_SERVE_REJECTED_SHUTDOWN",
    "METRIC_SERVE_BATCHES_DISPATCHED",
    "METRIC_SERVE_BATCH_FAILURES",
    "HIST_SERVE_REQUEST_MS",
    "HIST_SERVE_QUEUE_MS",
    "HIST_SERVE_BATCH_MS",
    "SERVE_CANONICAL_COUNTERS",
    "SERVE_CANONICAL_HISTOGRAMS",
    "SPAN_HEALTH_SNAPSHOT",
    "HEALTH_SCREENINGS",
    "HEALTH_REQUESTS",
    "HEALTH_RAKE_TAPS",
    "HEALTH_RECORDING_MS",
    "HEALTH_REQUEST_MS",
    "HEALTH_CALIB_OFFSET_DB",
    "HEALTH_COUNTER_SERIES",
    "HEALTH_DISTRIBUTION_SERIES",
    "SLO_AVAILABILITY",
    "SLO_LATENCY",
    "SLO_QUALITY",
    "SLO_OBJECTIVES",
    "HEALTH_LABEL_KEYS",
    "registry",
]

# -- span names ---------------------------------------------------------

#: Root span of one recording's trace (attrs: index, participant, day,
#: outcome, error_type).
SPAN_RECORDING = "recording"
#: The service's pre-admission quality gate (attrs: verdict, reasons).
SPAN_QUALITY_GATE = "quality.gate"
#: Parent-side feature-cache lookup for one recording (attrs: index, hit).
SPAN_CACHE_LOOKUP = "cache.lookup"
#: Parent-side wait for one pool chunk (attrs: chunk, size).
SPAN_CHUNK = "executor.chunk"
#: Butterworth band-pass over the raw capture.
SPAN_STAGE_BANDPASS = "stage.bandpass"
#: Adaptive-energy chirp/echo event detection (attr: events).
SPAN_STAGE_EVENTS = "stage.events"
#: Parity-decomposition eardrum-echo segmentation (attr: echoes).
SPAN_STAGE_PARITY = "stage.parity"
#: Per-echo spectra, TX deconvolution, and curve averaging.
SPAN_STAGE_SPECTRUM = "stage.spectrum"
#: Feature-vector assembly (curve bins + statistics + MFCCs).
SPAN_STAGE_FEATURES = "stage.features"
#: MFCC extraction of the mean echo segment (child of stage.features).
SPAN_STAGE_MFCC = "stage.mfcc"
#: Rake cancellation of early canal reflections (attr: removed).
#: Conditional: opened only when ``EarSonarConfig.reverb`` is enabled.
SPAN_STAGE_RAKE = "stage.rake"
#: Calibration-offset estimation over the per-echo curves (attrs:
#: offset_db, stable).  Conditional: opened only when
#: ``EarSonarConfig.calibration`` is enabled.
SPAN_STAGE_CALIBRATION = "stage.calibration"

#: Pre-admission screening of one service request, around its
#: ``quality.gate`` span (attr: tenant).  Opened only when the service
#: has a ``fast_reject`` gate.
SPAN_SERVE_ADMISSION = "serve.admission"
#: One dispatched micro-batch (attrs: batch, size).
SPAN_SERVE_BATCH = "serve.batch"
#: Snapshot assembly inside :meth:`HealthMonitor.snapshot` (attrs:
#: series, alerts).  Opened only when a real tracer is ambient.
SPAN_HEALTH_SNAPSHOT = "health.snapshot_build"

#: The in-recording pipeline stages, in execution order.
STAGE_SPAN_NAMES = (
    SPAN_STAGE_BANDPASS,
    SPAN_STAGE_EVENTS,
    SPAN_STAGE_PARITY,
    SPAN_STAGE_SPECTRUM,
    SPAN_STAGE_FEATURES,
    SPAN_STAGE_MFCC,
)

#: Every registered span name.
SPAN_NAMES = frozenset(
    {
        SPAN_RECORDING,
        SPAN_QUALITY_GATE,
        SPAN_CACHE_LOOKUP,
        SPAN_CHUNK,
        SPAN_SERVE_ADMISSION,
        SPAN_SERVE_BATCH,
        SPAN_STAGE_RAKE,
        SPAN_STAGE_CALIBRATION,
        SPAN_HEALTH_SNAPSHOT,
        *STAGE_SPAN_NAMES,
    }
)

# -- metric names -------------------------------------------------------

#: Recordings handed to :meth:`BatchExecutor.run`.
METRIC_RECORDINGS_SUBMITTED = "recordings.submitted"
#: Recordings that produced a :class:`ProcessedRecording`.
METRIC_RECORDINGS_OK = "recordings.ok"
#: Recordings quarantined as :class:`FailedRecording`.
METRIC_RECORDINGS_FAILED = "recordings.failed"
#: Actual DSP invocations (cache misses only).
METRIC_PIPELINE_CALLS = "pipeline.calls"
#: Cache lookups served from the cache.
METRIC_CACHE_HITS = "cache.hits"
#: Cache lookups that had to run the pipeline.
METRIC_CACHE_MISSES = "cache.misses"
#: Unreadable disk cache entries evicted (each also a miss).
METRIC_CACHE_CORRUPT = "cache.corrupt"
#: Pool tasks submitted by the parallel path.
METRIC_CHUNKS_DISPATCHED = "chunks.dispatched"
#: Parallel runs degraded to serial execution.
METRIC_SERIAL_FALLBACK = "executor.serial_fallback"
#: Pool tasks that missed their deadline.
METRIC_TIMEOUTS = "executor.timeouts"
#: Chunks lost to worker crashes or injected faults.
METRIC_WORKER_FAILURES = "executor.worker_failures"
#: Worker pools created: one per pooled run of an unopened executor,
#: one (plus one per fault) while it is open.
METRIC_POOL_STARTS = "executor.pool_starts"
#: Results the pipeline tagged with quality reasons (``corrupt_chirps``,
#: ``calibration_unstable``, ``non_finite``): screened, but degraded.
METRIC_QUALITY_DEGRADED = "quality.degraded"
#: Early reflections subtracted by the rake stage.  Conditional: only
#: emitted when ``EarSonarConfig.reverb`` is enabled and the rake
#: removed at least one tap, so it lives in
#: :data:`ECHO_CONDITIONAL_COUNTERS`.
METRIC_REVERB_TAPS_REMOVED = "reverb.taps_removed"

#: Per-recording DSP wall time (band-pass + feature extraction).
HIST_RECORDING_MS = "recording_ms"
#: Band-pass stage wall time per recording.
HIST_STAGE_BANDPASS_MS = "stage.bandpass_ms"
#: Feature-extraction stage wall time per recording.
HIST_STAGE_FEATURES_MS = "stage.features_ms"
#: Whole-batch wall time per :meth:`BatchExecutor.run` call.
HIST_BATCH_MS = "batch_ms"
#: Per-recording calibration offset estimate in dB (0.0 when the
#: estimation stage is disabled).
HIST_CALIB_OFFSET_DB = "calib.offset_db"

#: Every counter the runtime documents; the canonical-emission test
#: asserts each one is produced by an end-to-end batch scenario.
CANONICAL_COUNTERS = frozenset(
    {
        METRIC_RECORDINGS_SUBMITTED,
        METRIC_RECORDINGS_OK,
        METRIC_RECORDINGS_FAILED,
        METRIC_PIPELINE_CALLS,
        METRIC_CACHE_HITS,
        METRIC_CACHE_MISSES,
        METRIC_CACHE_CORRUPT,
        METRIC_CHUNKS_DISPATCHED,
        METRIC_SERIAL_FALLBACK,
        METRIC_TIMEOUTS,
        METRIC_WORKER_FAILURES,
        METRIC_POOL_STARTS,
        METRIC_QUALITY_DEGRADED,
    }
)

#: Every histogram the runtime documents.
CANONICAL_HISTOGRAMS = frozenset(
    {
        HIST_RECORDING_MS,
        HIST_STAGE_BANDPASS_MS,
        HIST_STAGE_FEATURES_MS,
        HIST_BATCH_MS,
        HIST_CALIB_OFFSET_DB,
    }
)

#: Counters that only fire on *reverberant* inputs (the rake
#: subtracted a reflection).  Documented names — the leak test accepts
#: them — but a healthy anechoic batch run is not required to produce
#: them; the echo-robustness tests assert their emission instead.
ECHO_CONDITIONAL_COUNTERS = frozenset(
    {
        METRIC_REVERB_TAPS_REMOVED,
    }
)

# -- online-service (repro.serve) metric names --------------------------

#: Requests handed to :meth:`ScreeningService.submit` (pre-admission).
METRIC_SERVE_SUBMITTED = "serve.requests.submitted"
#: Requests that passed admission control into the bounded queue.
METRIC_SERVE_ADMITTED = "serve.requests.admitted"
#: Admitted requests that received a response (any outcome).
METRIC_SERVE_COMPLETED = "serve.requests.completed"
#: Requests answered by the pre-enqueue quality gate without queueing.
METRIC_SERVE_FAST_REJECTED = "serve.requests.fast_rejected"
#: Quality-gate verdicts answered from the service's memo of earlier
#: identical captures, without running the gate's DSP.
METRIC_SERVE_GATE_MEMO_HITS = "serve.gate_memo.hits"
#: Rejections: the bounded request queue was at capacity.
METRIC_SERVE_REJECTED_QUEUE_FULL = "serve.rejected.queue_full"
#: Submissions refused because the service was not running (before
#: start or after stop).
METRIC_SERVE_REJECTED_SHUTDOWN = "serve.rejected.shutdown"
#: Micro-batches handed to the batch executor.
METRIC_SERVE_BATCHES_DISPATCHED = "serve.batches.dispatched"
#: Micro-batches whose executor call raised (requests answered as failed).
METRIC_SERVE_BATCH_FAILURES = "serve.batch_failures"

#: Submit-to-response wall time per request.
HIST_SERVE_REQUEST_MS = "serve.request_ms"
#: Admission-to-dispatch wait per request.
HIST_SERVE_QUEUE_MS = "serve.queue_ms"
#: Executor wall time per dispatched micro-batch.
HIST_SERVE_BATCH_MS = "serve.batch_ms"

#: Every counter the online service documents; the serving emission
#: test asserts each one is produced by an end-to-end service scenario.
SERVE_CANONICAL_COUNTERS = frozenset(
    {
        METRIC_SERVE_SUBMITTED,
        METRIC_SERVE_ADMITTED,
        METRIC_SERVE_COMPLETED,
        METRIC_SERVE_FAST_REJECTED,
        METRIC_SERVE_GATE_MEMO_HITS,
        METRIC_SERVE_REJECTED_QUEUE_FULL,
        METRIC_SERVE_REJECTED_SHUTDOWN,
        METRIC_SERVE_BATCHES_DISPATCHED,
        METRIC_SERVE_BATCH_FAILURES,
    }
)

#: Every histogram the online service documents.
SERVE_CANONICAL_HISTOGRAMS = frozenset(
    {
        HIST_SERVE_REQUEST_MS,
        HIST_SERVE_QUEUE_MS,
        HIST_SERVE_BATCH_MS,
    }
)

# -- fleet-health (repro.obs.health) names ------------------------------

#: Screening outcomes per verdict/reason (labels: verdict, reason).
#: Fed by the executor's parent-side outcome hook.
HEALTH_SCREENINGS = "health.screenings"
#: Service answers per tenant and outcome (labels: tenant, outcome).
HEALTH_REQUESTS = "health.requests"
#: Early-reflection taps the rake stage subtracted, rolled up per
#: device model (labels: device_model).  Fed by the executor's
#: parent-side outcome hook from ``num_reflections_removed``.
HEALTH_RAKE_TAPS = "health.rake_taps"

#: Per-recording DSP wall time distribution (unlabelled).
HEALTH_RECORDING_MS = "health.recording_ms"
#: Submit-to-response latency distribution per tenant (labels: tenant).
HEALTH_REQUEST_MS = "health.request_ms"
#: Calibration-offset estimates per device model (labels:
#: device_model): the fleet-drift rollup.  Fed by the executor's
#: parent-side outcome hook when calibration is enabled.
HEALTH_CALIB_OFFSET_DB = "health.calib_offset_db"

#: Every health *counter* series the monitor documents.
HEALTH_COUNTER_SERIES = frozenset(
    {
        HEALTH_SCREENINGS,
        HEALTH_REQUESTS,
        HEALTH_RAKE_TAPS,
    }
)

#: Every health *distribution* series the monitor documents.
HEALTH_DISTRIBUTION_SERIES = frozenset(
    {
        HEALTH_RECORDING_MS,
        HEALTH_REQUEST_MS,
        HEALTH_CALIB_OFFSET_DB,
    }
)

#: SLO objective ids: the objectives :mod:`repro.obs.health` tracks
#: (its ``SLO_TARGETS``) and the hooks feed.
SLO_AVAILABILITY = "slo.availability"
SLO_LATENCY = "slo.latency"
SLO_QUALITY = "slo.quality_acceptance"

#: Every declared SLO objective id.
SLO_OBJECTIVES = frozenset(
    {
        SLO_AVAILABILITY,
        SLO_LATENCY,
        SLO_QUALITY,
    }
)

#: The closed vocabulary of rollup label *keys*.  Label values may be
#: caller data (tenant ids, device models) — bounded at runtime by the
#: per-key cardinality budget — but the keys themselves are a reviewed
#: set: QA012 fails any ``labels={...}`` call site using a key outside
#: this frozenset, and the rollup tables reject undeclared keys at
#: runtime too.
HEALTH_LABEL_KEYS = frozenset(
    {
        "tenant",
        "device_model",
        "verdict",
        "reason",
        "outcome",
    }
)


def registry() -> dict[str, tuple[str, ...]]:
    """Machine-readable export of every name registry, sorted.

    One entry per registry set, keyed by the set's constant name.  This
    is the runtime counterpart of the static view the QA010 rule builds
    from this module's source — ``tests/qa`` asserts the two agree, so
    a registry refactor that the static analyzer cannot follow fails
    loudly instead of silently weakening the lint.
    """
    return {
        "SPAN_NAMES": tuple(sorted(SPAN_NAMES)),
        "CANONICAL_COUNTERS": tuple(sorted(CANONICAL_COUNTERS)),
        "CANONICAL_HISTOGRAMS": tuple(sorted(CANONICAL_HISTOGRAMS)),
        "ECHO_CONDITIONAL_COUNTERS": tuple(sorted(ECHO_CONDITIONAL_COUNTERS)),
        "SERVE_CANONICAL_COUNTERS": tuple(sorted(SERVE_CANONICAL_COUNTERS)),
        "SERVE_CANONICAL_HISTOGRAMS": tuple(sorted(SERVE_CANONICAL_HISTOGRAMS)),
        "HEALTH_COUNTER_SERIES": tuple(sorted(HEALTH_COUNTER_SERIES)),
        "HEALTH_DISTRIBUTION_SERIES": tuple(sorted(HEALTH_DISTRIBUTION_SERIES)),
        "SLO_OBJECTIVES": tuple(sorted(SLO_OBJECTIVES)),
        "HEALTH_LABEL_KEYS": tuple(sorted(HEALTH_LABEL_KEYS)),
    }
