"""Exporters: run records, Chrome trace-event files, Prometheus text.

One batch run produces one *run record* — a JSON file bundling the
:class:`~repro.obs.manifest.RunManifest`, the metrics snapshot, and
every finished span tree.  The record is the interchange format the
``python -m repro.obs`` CLI consumes (summaries, tree rendering, run
diffs); two derived views serve external tools:

- **Chrome trace-event format** (``trace.chrome.json``): the span
  forest as ``"X"`` complete events, one thread per recording, so a
  batch run opens directly in Perfetto / ``chrome://tracing`` as a
  flamegraph;
- **Prometheus text exposition** (``metrics.prom``): counters and
  histogram summaries in the plain-text scrape format, so a periodic
  batch job can push its metrics to a gateway without new deps.

With ``manifest.json`` beside them, that is every file a run record
writes.  What happened to each recording (its outcome and error type)
is on its ``recording`` span, not in a separate log.

This is the one Prometheus text writer: :func:`prom_name`,
:func:`prom_labels` and :func:`summary_samples` also render
:meth:`~repro.obs.health.HealthMonitor.prometheus`.

All exporters are pure functions of already-collected data; they never
touch the tracer's hot path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from . import names
from .manifest import RunManifest
from .tracer import Span

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "RunRecord",
    "chrome_trace",
    "prom_labels",
    "prom_name",
    "prometheus_text",
    "summary_samples",
    "write_run_record",
    "load_run_record",
]

#: Bumped whenever the run-record JSON layout changes incompatibly.
RECORD_SCHEMA_VERSION = 1

#: Synthetic Chrome-trace thread id hosting run-level (non-recording)
#: spans; per-recording tracks start at tid 1 (= index + 1).
_RUNTIME_TID = 0


@dataclass
class RunRecord:
    """Deserialized run record: provenance + metrics + span forest."""

    spans: list[Span] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    manifest: RunManifest | None = None

    def recording_roots(self) -> list[Span]:
        """Per-recording root spans, sorted by their batch index."""
        roots = [s for s in self.spans if s.name == names.SPAN_RECORDING]
        return sorted(roots, key=lambda s: (s.attrs.get("index", -1), s.start_ms))

    def to_dict(self) -> dict[str, Any]:
        """Serializable form written by :func:`write_run_record`."""
        return {
            "schema_version": RECORD_SCHEMA_VERSION,
            "manifest": self.manifest.to_dict() if self.manifest else None,
            "metrics": self.metrics,
            "spans": [span.to_dict() for span in self.spans],
        }


def _span_tid(root: Span) -> int:
    index = root.attrs.get("index")
    if isinstance(index, int) and index >= 0:
        return index + 1
    return _RUNTIME_TID


def _chrome_events_for(span: Span, pid: int, tid: int) -> Iterable[dict[str, Any]]:
    yield {
        "name": span.name,
        "cat": span.name.split(".")[0],
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": round(span.start_ms * 1e3, 1),
        "dur": round(span.duration_ms * 1e3, 1),
        "args": dict(span.attrs),
    }
    for child in span.children:
        yield from _chrome_events_for(child, pid, tid)


def chrome_trace(spans: Iterable[Span], *, process_name: str = "earsonar") -> dict[str, Any]:
    """Span forest as a Chrome trace-event document (Perfetto-loadable).

    Each recording root (and its subtree) gets its own thread track,
    named after the recording's provenance; run-level spans share the
    ``runtime`` track.  Durations are microseconds, as the format
    requires.
    """
    pid = 1
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": _RUNTIME_TID,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": _RUNTIME_TID,
            "args": {"name": "runtime"},
        },
    ]
    named_tids: set[int] = set()
    for root in spans:
        tid = _span_tid(root)
        if tid != _RUNTIME_TID and tid not in named_tids:
            named_tids.add(tid)
            participant = root.attrs.get("participant", "")
            label = f"recording {tid - 1}"
            if participant:
                label += f" ({participant} d{root.attrs.get('day', '?')})"
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        events.extend(_chrome_events_for(root, pid, tid))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


_PROM_NAME_INVALID = re.compile(r"[^A-Za-z0-9_]")


def prom_name(name: str) -> str:
    """``earsonar_`` + ``name``, every character outside ``[A-Za-z0-9_]`` as ``_``."""
    return "earsonar_" + _PROM_NAME_INVALID.sub("_", name)


def prom_labels(labels: Mapping[str, str]) -> str:
    """``{key="value",...}`` sorted by key; empty string for no labels.

    Values escape backslash, double quote and newline as ``\\\\``,
    ``\\"`` and ``\\n``, as the text format requires.
    """
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"' for key in sorted(labels)
    )
    return "{" + body + "}"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def summary_samples(
    metric: str,
    labels: Mapping[str, str],
    quantiles: Mapping[float, float],
    count: int,
    total: float,
) -> list[str]:
    """Sample lines of one summary row: each quantile, ``_count``, ``_sum``."""
    rendered = prom_labels(labels)
    lines = [
        f"{metric}{prom_labels({**labels, 'quantile': f'{q:g}'})} {value:.6f}"
        for q, value in quantiles.items()
    ]
    lines.append(f"{metric}_count{rendered} {count}")
    lines.append(f"{metric}_sum{rendered} {total:.6f}")
    return lines


def prometheus_text(metrics: Any) -> str:
    """Metrics snapshot in the Prometheus text exposition format.

    ``metrics`` is a :class:`~repro.runtime.metrics.RuntimeMetrics`
    registry or an already-built ``report()`` dict.  Histograms are
    exported as ``summary`` families (pre-computed quantiles plus
    ``_count`` / ``_sum``), counters as ``counter`` families, and the
    cache hit rate as a ``gauge``.
    """
    report = metrics.report() if hasattr(metrics, "report") else dict(metrics)
    lines: list[str] = []
    for name in sorted(report.get("counters", {})):
        prom = prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {int(report['counters'][name])}")
    for name in sorted(report.get("histograms", {})):
        prom = prom_name(name)
        digest = report["histograms"][name]
        count = int(digest["count"])
        quantiles = {0.5: digest["p50"], 0.95: digest["p95"], 0.99: digest["p99"]}
        lines.append(f"# TYPE {prom} summary")
        lines.extend(
            summary_samples(prom, {}, quantiles, count, float(digest["mean"]) * count)
        )
    if "cache_hit_rate" in report:
        prom = prom_name("cache_hit_rate")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {float(report['cache_hit_rate']):.6g}")
    return "\n".join(lines) + "\n"


def write_run_record(
    directory: str | Path,
    *,
    spans: Iterable[Span],
    metrics: Any = None,
    manifest: RunManifest | None = None,
    stem: str = "trace",
) -> dict[str, Path]:
    """Write every export of one run under ``directory``.

    Produces ``<stem>.json`` (the run record), ``<stem>.chrome.json``
    (Perfetto), plus ``manifest.json`` and ``metrics.prom`` when the
    corresponding inputs are given.  Returns the written paths keyed by
    artifact kind.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spans = list(spans)
    report = metrics.report() if hasattr(metrics, "report") else dict(metrics or {})
    record = RunRecord(spans=spans, metrics=report, manifest=manifest)

    paths: dict[str, Path] = {}
    record_path = directory / f"{stem}.json"
    record_path.write_text(
        json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    paths["record"] = record_path

    chrome_path = directory / f"{stem}.chrome.json"
    chrome_path.write_text(
        json.dumps(chrome_trace(spans), indent=2) + "\n", encoding="utf-8"
    )
    paths["chrome"] = chrome_path

    if manifest is not None:
        paths["manifest"] = manifest.save(directory / "manifest.json")
    if metrics is not None:
        prom_path = directory / "metrics.prom"
        prom_path.write_text(prometheus_text(report), encoding="utf-8")
        paths["prometheus"] = prom_path
    return paths


def load_run_record(path: str | Path) -> RunRecord:
    """Read a ``<stem>.json`` run record back into a :class:`RunRecord`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    manifest_data = data.get("manifest")
    return RunRecord(
        spans=[Span.from_dict(d) for d in data.get("spans", ())],
        metrics=dict(data.get("metrics", {})),
        manifest=RunManifest.from_dict(manifest_data) if manifest_data else None,
    )
