"""Per-layer metrics of the traced run, and what each is expected to move.

A traced run makes two pooled passes (``workers=2``, as timed untraced)
over the same share of the seeded inputs:

- ``untraced``: the executor's run and chunk counts (``metrics.report()``),
  the serve figures (read from each response) and the generator's lag
  come from this pass, and it is the baseline of ``trace.overhead_pct``.
- ``traced``: under the program's own tracer plus the benchmark's
  wrappers (``tracing.py``).  Stage times come from the span trees pool
  workers send back, so they are measured in the pooled configuration.
- ``open-loop`` (``fleet-closed`` only): ``fleet-serve``'s open loop on
  the same screener, for ``loadgen.*``, which a closed loop cannot show.

Wall time is charged to layers per request (or per study batch): every
span's self time goes to its layer, and the time the parent spends
waiting on pool chunks goes to the layers of the worker trees adopted in
that run, in proportion to their worker time.  The shares of one
workload therefore add up to one.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracing import Recorder, Span, children_of, self_times
from workloads import WORKERS, PassResult

#: Layer → (entry point timed, metrics, end-to-end metric it should move,
#: workloads it should move on, workloads it is predicted flat on).
LAYERS = [
    ("signal.parity", "EarSonarPipeline.extract_echoes (stage.parity)",
     ("signal.parity.self_ms", "signal.parity.echo_yield"),
     "captures_per_s, verdict_p50_ms", "study-batch, fleet-closed", "resubmit-serve"),
    ("core.spectrum", "absorption_curves (stage.spectrum)", ("core.spectrum.self_ms",),
     "captures_per_s", "study-batch", "resubmit-serve"),
    ("signal.events", "detect_chirp_events (stage.events)",
     ("signal.events.self_ms", "signal.events.per_capture"),
     "captures_per_s", "study-batch", "resubmit-serve"),
    ("signal.bandpass", "preprocess (stage.bandpass)", ("signal.bandpass.self_ms",),
     "captures_per_s", "study-batch", "resubmit-serve"),
    ("features.vector", "FeatureVectorBuilder.build (stage.features)",
     ("features.vector.self_ms",), "captures_per_s", "study-batch", "resubmit-serve"),
    ("signal.rake", "cancel_reflections (stage.rake)",
     ("signal.rake.self_ms", "signal.rake.taps_removed"),
     "verdict_p50_ms, verdict_p95_ms", "fleet-closed", "study-batch, resubmit-serve"),
    ("core.calibration", "estimate_calibration (stage.calibration)",
     ("core.calibration.self_ms",),
     "verdict_p50_ms, verdict_p95_ms", "fleet-closed", "study-batch, resubmit-serve"),
    ("quality.gate", "assess_recording (quality.gate)",
     ("quality.gate.self_ms", "quality.gate.calls", "quality.gate.rejects"),
     "captures_per_s, verdict_p50_ms", "resubmit-serve, fleet-closed", "study-batch"),
    ("runtime.cache", "recording_key, FeatureCache.get_for (cache.lookup)/put",
     ("runtime.cache.key_ms", "runtime.cache.lookups", "runtime.cache.hit_ratio",
      "runtime.cache.puts"),
     "captures_per_s", "resubmit-serve", "study-batch"),
    ("runtime.executor", "BatchExecutor.run",
     ("runtime.executor.self_ms", "runtime.executor.runs", "runtime.executor.chunks",
      "runtime.executor.parallel_efficiency"),
     "captures_per_s, verdict_p50_ms", "study-batch, fleet-closed", "resubmit-serve"),
    ("core.detector", "MeeDetector.decision_distances", ("core.detector.self_ms",),
     "none", "-", "all"),
    ("serve", "ScreeningService.submit",
     ("serve.queue_ms", "serve.batch_ms", "serve.batch_size", "serve.batches",
      "serve.fast_rejected"),
     "verdict_p50_ms, verdict_p95_ms, captures_per_s", "fleet-closed, resubmit-serve",
     "study-batch"),
    ("loadgen", "the benchmark's open-loop generator",
     ("loadgen.lag_p95_ms", "loadgen.backlog_end"),
     "validity of the open loop", "fleet-closed (open-loop pass of its traced run)", "-"),
    ("trace", "-", ("trace.overhead_pct", "trace.unattributed_frac"), "none", "all", "-"),
]

#: Layer of each span name; a name not listed is its own layer.
LAYER_OF = {
    "stage.bandpass": "signal.bandpass",
    "stage.events": "signal.events",
    "stage.rake": "signal.rake",
    "stage.parity": "signal.parity",
    "stage.spectrum": "core.spectrum",
    "stage.calibration": "core.calibration",
    "stage.features": "features.vector",
    "stage.mfcc": "features.vector",
    "cache.lookup": "runtime.cache",
    "runtime.cache.key": "runtime.cache",
    "recording": "runtime.executor",
    "retry.attempt": "runtime.executor",
    "serve.admission": "serve",
    "serve.batch": "serve",
    "request": "unattributed",
    "study.batch": "unattributed",
}

#: Spans that enclose one request's (or one batch's) end-to-end time.
ROOTS = ("request", "study.batch")

#: The parent's wait on a pool chunk: charged to the workers' layers.
CHUNK = "executor.chunk"

#: ``<metric>`` → span name whose per-call layer time it is the median of.
_PER_CALL = {
    "signal.parity.self_ms": "stage.parity",
    "core.spectrum.self_ms": "stage.spectrum",
    "signal.events.self_ms": "stage.events",
    "signal.bandpass.self_ms": "stage.bandpass",
    "features.vector.self_ms": "stage.features",
    "signal.rake.self_ms": "stage.rake",
    "core.calibration.self_ms": "stage.calibration",
    "quality.gate.self_ms": "quality.gate",
    "runtime.cache.key_ms": "runtime.cache.key",
    "core.detector.self_ms": "core.detector",
}


def _layer(name: str) -> str:
    return LAYER_OF.get(name, name)


def links(spans: list[Span]) -> dict[int, list[int]]:
    """Count each request's micro-batch under its ``serve`` (submit) span.

    The service runs the batch in its dispatch task, so ``serve.batch``
    is not a call-tree child of ``submit``; the response's batch number
    names it.
    """
    batches = {s.attrs["batch"]: s.index for s in spans if s.name == "serve.batch"}
    extra: dict[int, list[int]] = {}
    for span in spans:
        if span.name == "serve" and span.parent is not None:
            batch = batches.get(spans[span.parent].attrs.get("batch", -1))
            if batch is not None:
                extra[span.index] = [batch]
    return extra


class Analysis:
    """Self times and per-layer wall time of one traced pass."""

    def __init__(self, recorder: Recorder) -> None:
        self.spans = recorder.spans
        self.children = children_of(self.spans, links(self.spans))
        self.selfs = self_times(self.spans, self.children)

    def layer_time(self, index: int) -> float:
        """Self time of a span plus that of its descendants in the same layer."""
        layer = _layer(self.spans[index].name)
        total, stack = 0.0, [index]
        while stack:
            i = stack.pop()
            total += self.selfs[i]
            stack.extend(
                c for c in self.children.get(i, ())
                if _layer(self.spans[c].name) == layer
                and self.spans[c].worker == self.spans[i].worker
            )
        return total

    def _worker_time(self, root: int) -> defaultdict[str, float]:
        totals: defaultdict[str, float] = defaultdict(float)
        stack = [root]
        while stack:
            i = stack.pop()
            totals[_layer(self.spans[i].name)] += self.selfs[i]
            stack.extend(self.children.get(i, ()))
        return totals

    def wall_by_layer(self, root: int) -> defaultdict[str, float]:
        """``root``'s wall time split into layers (see the module docstring)."""
        totals: defaultdict[str, float] = defaultdict(float)
        stack = [root]
        while stack:
            i = stack.pop()
            kids = self.children.get(i, ())
            workers: defaultdict[str, float] = defaultdict(float)
            for c in kids:
                if self.spans[c].worker:
                    for layer, seconds in self._worker_time(c).items():
                        workers[layer] += seconds
            waited = 0.0
            for c in kids:
                if self.spans[c].name == CHUNK:
                    waited += self.selfs[c]
                elif not self.spans[c].worker:
                    stack.append(c)
            totals[_layer(self.spans[i].name)] += self.selfs[i]
            worked = sum(workers.values())
            if worked:
                for layer, seconds in workers.items():
                    totals[layer] += waited * seconds / worked
            else:
                totals["runtime.executor"] += waited
        return totals

    def breakdown(self) -> dict[str, float]:
        """Each layer's share of the pass's end-to-end time, summed over roots."""
        totals: defaultdict[str, float] = defaultdict(float)
        roots = [s.index for s in self.spans if s.name in ROOTS]
        for root in roots:
            for layer, seconds in self.wall_by_layer(root).items():
                totals[layer] += seconds
        elapsed = sum(self.spans[root].duration for root in roots)
        return {layer: seconds / elapsed for layer, seconds in totals.items()}


def layer_metrics(
    untraced: PassResult,
    traced: PassResult,
    recorder: Recorder,
    open_loop: PassResult | None = None,
) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``.

    ``loadgen.*`` come from ``open_loop`` when a closed-loop workload
    made such a pass, else from the untraced pass.

    ``*.self_ms`` is the median time per call of the layer: per DSP'd
    capture for the stages, per capture of a run for the executor, per
    call for the gate, the cache key and the detector.
    """
    analysis = Analysis(recorder)
    spans = analysis.spans
    calls: defaultdict[str, list[Span]] = defaultdict(list)
    for span in spans:
        calls[span.name].append(span)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def median_ms(values: list[float]) -> float:
        return float(np.median(values)) * 1e3 if values else 0.0

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in calls[name]))

    runs = calls["runtime.executor"]
    pooled = [r for r in runs if any(spans[c].worker for c in analysis.children.get(r.index, ()))]
    worker_s = sum(
        spans[c].duration
        for r in pooled
        for c in analysis.children.get(r.index, ())
        if spans[c].worker and spans[c].name == "recording"
    )
    metrics = {
        metric: median_ms([analysis.layer_time(s.index) for s in calls[name]])
        for metric, name in _PER_CALL.items()
    }
    lookups = calls["cache.lookup"]
    metrics.update({
        "signal.parity.echo_yield": ratio(
            attr_sum("stage.parity", "echoes"), attr_sum("stage.events", "events")
        ),
        "signal.events.per_capture": ratio(
            attr_sum("stage.events", "events"), len(calls["stage.events"])
        ),
        "signal.rake.taps_removed": attr_sum("stage.rake", "removed"),
        "quality.gate.calls": float(len(calls["quality.gate"])),
        "quality.gate.rejects": float(
            sum(s.attrs.get("verdict") == "reject" for s in calls["quality.gate"])
        ),
        "runtime.cache.lookups": float(len(lookups)),
        "runtime.cache.hit_ratio": ratio(
            sum(bool(s.attrs.get("hit")) for s in lookups), len(lookups)
        ),
        "runtime.cache.puts": float(
            sum(s.attrs.get("via") == "put" for s in calls["runtime.cache.key"])
        ),
        "runtime.executor.self_ms": median_ms([
            analysis.wall_by_layer(r.index)["runtime.executor"] / r.attrs["size"]
            for r in runs
            if r.attrs.get("size")
        ]),
        "runtime.executor.runs": untraced.stats["runs"],
        "runtime.executor.chunks": untraced.stats["chunks"],
        "runtime.executor.parallel_efficiency": ratio(
            worker_s, WORKERS * sum(r.duration for r in pooled)
        ),
        "serve.queue_ms": untraced.stats.get("queue_ms", 0.0),
        "serve.batch_ms": untraced.stats.get("batch_ms", 0.0),
        "serve.batch_size": untraced.stats.get("batch_size", 0.0),
        "serve.batches": untraced.stats.get("batches", 0.0),
        "serve.fast_rejected": untraced.stats.get("fast_rejected", 0.0),
        "loadgen.lag_p95_ms": (open_loop or untraced).stats.get("lag_p95_ms", 0.0),
        "loadgen.backlog_end": (open_loop or untraced).stats.get("backlog_end", 0.0),
        "trace.overhead_pct": 100.0 * ratio(
            traced.per_capture_ms - untraced.per_capture_ms, untraced.per_capture_ms
        ),
        "trace.unattributed_frac": analysis.breakdown().get("unattributed", 0.0),
    })
    return metrics


def layer_report(metrics: dict[str, float], recorder: Recorder, e2e_ms: float) -> list[str]:
    """Human-readable tables: the per-layer metrics, then the time breakdown."""
    lines = []
    for layer, entry, names, moves, on, flat in LAYERS:
        lines.append(f"{layer}  [{entry}]  moves: {moves}  on: {on}  flat on: {flat}")
        lines += [f"    {name:<40} {metrics[name]:12.4f}" for name in names]
    lines.append(
        f"breakdown of the traced pass (per-capture end-to-end time {e2e_ms:.3f} ms):"
    )
    shares = Analysis(recorder).breakdown()
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<24} {100.0 * share:6.2f}%  {share * e2e_ms:10.3f} ms")
    return lines
