"""``repro.obs`` — tracing, run records, and fleet health.

The observability layer of the reproduction, threaded through every
other layer but owned here:

- :mod:`~repro.obs.tracer` — hierarchical spans; one trace per
  recording with child spans per pipeline stage, plus runtime spans
  (cache lookups, chunk waits, the service's quality gate).  The
  ambient default is a :class:`NullTracer`, making instrumentation
  zero-cost and bit-identical when disabled.  A pool worker ships each
  recording's span tree home with its outcome: the only telemetry that
  crosses the process boundary.
- :mod:`~repro.obs.manifest` — :class:`RunManifest` provenance
  (config fingerprint, seed, versions, git SHA, hostname, argv).
- :mod:`~repro.obs.names` — the canonical span/metric name registry
  (enforced by lint rules QA007 and QA010).
- :mod:`~repro.obs.export` — run records, Chrome trace-event files
  (Perfetto flamegraphs), Prometheus text exposition.
- :mod:`~repro.obs.summary` — per-stage percentiles, critical paths,
  and run-to-run diffs.
- :mod:`~repro.obs.health` — fleet-health aggregation in the parent
  process: sliding windows, bounded-label rollups, and SLO burn-rate
  alerting over the injected clock, with the window grid, label budget,
  SLO targets and burn rules as module constants (``python -m
  repro.obs health`` renders the dashboard).
- :mod:`~repro.obs.sketch` — the mergeable :class:`QuantileSketch`
  behind every streaming distribution (runtime histograms and health
  windows).

Quick use::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        result = executor.run(recordings)   # spans collected

    from repro.obs.export import write_run_record
    write_run_record("runs/today", spans=tracer.traces,
                     metrics=executor.metrics)

then ``python -m repro.obs summarize runs/today/trace.json``.
"""

from . import names
from .export import RunRecord, chrome_trace, load_run_record, prometheus_text, write_run_record
from .health import NULL_HEALTH, HealthMonitor, NullHealthMonitor, current_health, use_health
from .manifest import RunManifest, capture_manifest, git_revision
from .summary import StageStats, critical_path, diff_stages, slowest_recordings, stage_stats
from .tracer import (
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    activate_from_context,
    current_tracer,
    use_tracer,
)

__all__ = [
    "names",
    "Span",
    "NullSpan",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceContext",
    "current_tracer",
    "use_tracer",
    "activate_from_context",
    "RunManifest",
    "capture_manifest",
    "git_revision",
    "RunRecord",
    "chrome_trace",
    "prometheus_text",
    "write_run_record",
    "load_run_record",
    "StageStats",
    "stage_stats",
    "slowest_recordings",
    "critical_path",
    "diff_stages",
    "HealthMonitor",
    "NullHealthMonitor",
    "NULL_HEALTH",
    "current_health",
    "use_health",
]
