"""Exporter tests: Chrome trace golden file, Prometheus format, run records.

The Chrome-trace golden run is a seeded 3-recording batch (one of them
silent, so the golden covers the quarantine path too).  Span *timing*
varies run to run, so ``ts``/``dur`` are stripped before comparison —
everything else (names, categories, track layout, attributes) is a pure
function of the seeded input and must match the checked-in file
exactly.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.obs import (
    RunRecord,
    Tracer,
    capture_manifest,
    chrome_trace,
    load_run_record,
    prometheus_text,
    use_tracer,
    write_run_record,
)
from repro.obs.export import prom_name
from repro.runtime.executor import BatchExecutor
from repro.runtime.metrics import RuntimeMetrics
from repro.serve import ScreeningRequest, ScreeningService, VirtualClock

from .conftest import structure
from .prometheus_format import validate_prometheus

GOLDEN_CHROME = Path(__file__).parent / "golden_chrome_trace.json"


def _normalized_chrome(doc: dict) -> dict:
    """The deterministic projection of a Chrome-trace document."""
    events = []
    for event in doc["traceEvents"]:
        event = {k: v for k, v in event.items() if k not in ("ts", "dur")}
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": doc["displayTimeUnit"]}


@pytest.fixture(scope="module")
def golden_run(obs_pipeline, obs_recordings):
    """(tracer, metrics) of a traced seeded 3-recording serial run.

    Recording 1 is silent, so the registry holds failure counters too.
    """
    tracer = Tracer()
    metrics = RuntimeMetrics()
    with use_tracer(tracer):
        BatchExecutor(obs_pipeline, metrics=metrics).run(obs_recordings[:3])
    return tracer, metrics


#: Tenant ids that a name-folding writer would collide (the first two)
#: or turn into a non-ASCII metric name (the third).
AWKWARD_TENANTS = ("clinic-a", "clinic.a", "klinik-ü")


@pytest.fixture(scope="module")
def served_tenants(obs_pipeline, obs_recordings):
    """Registry of a ScreeningService that served the awkward tenants."""
    metrics = RuntimeMetrics()

    async def scenario() -> None:
        clock = VirtualClock()
        service = ScreeningService(
            BatchExecutor(obs_pipeline, metrics=metrics),
            clock=clock,
            max_batch_size=len(AWKWARD_TENANTS),
        )
        await service.start()
        tasks = [
            asyncio.ensure_future(
                service.submit(ScreeningRequest(f"r-{i}", tenant, obs_recordings[0]))
            )
            for i, tenant in enumerate(AWKWARD_TENANTS)
        ]
        await clock.advance_until(lambda: all(t.done() for t in tasks), step=0.05)
        await service.stop()

    asyncio.run(scenario())
    return metrics


class TestChromeTrace:
    def test_matches_golden_file(self, golden_run):
        tracer, _ = golden_run
        produced = _normalized_chrome(chrome_trace(tracer.traces))
        golden = json.loads(GOLDEN_CHROME.read_text(encoding="utf-8"))
        assert produced == golden

    def test_every_span_has_timing_fields(self, golden_run):
        tracer, _ = golden_run
        doc = chrome_trace(tracer.traces)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["dur"] >= 0.0
            assert event["ts"] >= 0.0

    def test_one_thread_track_per_recording(self, golden_run):
        tracer, _ = golden_run
        doc = chrome_trace(tracer.traces)
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # tid 0 is the runtime track; recordings 0..2 get tids 1..3.
        assert thread_names[0] == "runtime"
        assert set(thread_names) == {0, 1, 2, 3}
        for tid in (1, 2, 3):
            assert thread_names[tid].startswith(f"recording {tid - 1} (")


class TestPrometheus:
    def _metrics(self) -> RuntimeMetrics:
        m = RuntimeMetrics()
        m.increment("cache.hits", 3)
        m.increment("cache.misses", 1)
        m.increment("recordings.ok", 4)
        for v in (1.0, 2.0, 3.0):
            m.observe("recording_ms", v)
        return m

    def test_exposition_passes_line_validator(self):
        validate_prometheus(prometheus_text(self._metrics()))

    def test_counters_histograms_and_gauge_are_exported(self):
        text = prometheus_text(self._metrics())
        assert "# TYPE earsonar_cache_hits counter\nearsonar_cache_hits 3" in text
        assert "# TYPE earsonar_recording_ms summary" in text
        assert 'earsonar_recording_ms{quantile="0.5"} 2' in text
        assert "earsonar_recording_ms_count 3" in text
        assert "earsonar_recording_ms_sum 6" in text
        assert "# TYPE earsonar_cache_hit_rate gauge\nearsonar_cache_hit_rate 0.75" in text

    def test_accepts_a_prebuilt_report_dict(self):
        text = prometheus_text(self._metrics().report())
        validate_prometheus(text)
        assert "earsonar_recordings_ok 4" in text

    def test_end_to_end_metrics_validate(self, golden_run, served_tenants):
        # The real executor's and service's metric names must all
        # survive sanitization.
        _, metrics = golden_run
        assert metrics.report()["histograms"]
        validate_prometheus(prometheus_text(metrics))
        validate_prometheus(prometheus_text(served_tenants))
        validate_prometheus(prometheus_text(RuntimeMetrics()))  # empty is valid too

    def test_no_tenant_id_reaches_the_exposition(self, served_tenants):
        # Per-tenant traffic is a health label; the registry's own names
        # carry no caller data, raw or sanitized.
        text = prometheus_text(served_tenants)
        for tenant in AWKWARD_TENANTS:
            assert tenant not in text
            assert prom_name(tenant).removeprefix("earsonar_") not in text


class TestRunRecord:
    def test_write_and_load_round_trip(self, tmp_path, golden_run):
        tracer, _ = golden_run
        metrics = RuntimeMetrics()
        metrics.increment("recordings.ok", 2)
        manifest = capture_manifest(seed=7, argv=["test"])

        paths = write_run_record(
            tmp_path,
            spans=tracer.traces,
            metrics=metrics,
            manifest=manifest,
        )
        assert set(paths) == {"record", "chrome", "manifest", "prometheus"}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            p.name for p in paths.values()
        )

        record = load_run_record(paths["record"])
        assert [structure(s) for s in record.spans] == [
            structure(s) for s in tracer.traces
        ]
        assert record.metrics["counters"]["recordings.ok"] == 2
        assert record.manifest == manifest
        # The chrome export equals a direct chrome_trace of the spans.
        chrome = json.loads(paths["chrome"].read_text())
        assert _normalized_chrome(chrome) == _normalized_chrome(
            chrome_trace(tracer.traces)
        )

    def test_minimal_record_without_optional_inputs(self, tmp_path):
        paths = write_run_record(tmp_path, spans=[])
        assert set(paths) == {"record", "chrome"}
        record = load_run_record(paths["record"])
        assert record.spans == []
        assert record.manifest is None

    def test_recording_roots_sorted_by_index(self, golden_run):
        tracer, _ = golden_run
        record = RunRecord(spans=list(reversed(tracer.traces)))
        assert [r.attrs["index"] for r in record.recording_roots()] == [0, 1, 2]
