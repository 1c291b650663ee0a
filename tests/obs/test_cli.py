"""End-to-end CLI tests: runtime ``--trace-dir`` and ``python -m repro.obs``.

The runtime CLI run is the acceptance scenario: a seeded batch with
tracing enabled must leave a complete run record on disk whose manifest
fingerprint matches the live config, and the obs CLI must summarize,
render, and diff that record.
"""

from __future__ import annotations

import json

import pytest

from repro.core import EarSonarConfig
from repro.obs import RunManifest, names
from repro.obs.__main__ import main as obs_main
from repro.obs.export import load_run_record
from repro.runtime.__main__ import main as runtime_main


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """One traced runtime-CLI run shared by every CLI test."""
    directory = tmp_path_factory.mktemp("trace")
    code = runtime_main(
        [
            "--participants", "2",
            "--days", "2",
            "--duration", "0.1",
            "--seed", "2023",
            "--trace-dir", str(directory),
        ]
    )
    assert code == 0
    return directory


class TestRuntimeTraceDir:
    def test_run_record_artifacts_written(self, trace_dir):
        assert sorted(p.name for p in trace_dir.iterdir()) == [
            "manifest.json",
            "metrics.prom",
            "trace.chrome.json",
            "trace.json",
        ]

    def test_manifest_fingerprint_matches_live_config(self, trace_dir):
        manifest = RunManifest.load(trace_dir / "manifest.json")
        assert manifest.config_fingerprint == EarSonarConfig().fingerprint()
        assert manifest.seed == 2023

    def test_record_contains_every_recording_trace(self, trace_dir):
        record = load_run_record(trace_dir / "trace.json")
        # 2 participants x 2 days; only the cold pass runs the DSP —
        # the warm pass is served entirely from cache-lookup spans.
        roots = [s for s in record.spans if s.name == names.SPAN_RECORDING]
        assert len(roots) == 4
        lookups = [s for s in record.spans if s.name == names.SPAN_CACHE_LOOKUP]
        assert len(lookups) == 8
        assert sum(bool(s.attrs["hit"]) for s in lookups) == 4
        assert record.metrics["counters"]["recordings.submitted"] == 8
        # One batch_ms sample per pass: the record covers both runs.
        assert record.metrics["histograms"][names.HIST_BATCH_MS]["count"] == 2

    def test_chrome_export_is_valid_json_with_events(self, trace_dir):
        doc = json.loads((trace_dir / "trace.chrome.json").read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])


class TestSummarize:
    def test_reports_percentiles_and_slowest(self, trace_dir, capsys):
        assert obs_main(["summarize", str(trace_dir / "trace.json"), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "p50 ms" in out and "p95 ms" in out and "p99 ms" in out
        for stage in (names.SPAN_STAGE_BANDPASS, names.SPAN_STAGE_FEATURES):
            assert stage in out
        assert "slowest 3 recordings:" in out
        # The manifest header identifies the run.
        assert "seed=2023" in out
        assert f"config={EarSonarConfig().fingerprint()[:12]}" in out


class TestTree:
    def test_renders_trees_with_critical_path_markers(self, trace_dir, capsys):
        assert obs_main(["tree", str(trace_dir / "trace.json"), "--limit", "20"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("*")
        assert names.SPAN_RECORDING in out
        assert names.SPAN_STAGE_BANDPASS in out

    def test_limit_truncates_the_listing(self, trace_dir, capsys):
        assert obs_main(["tree", str(trace_dir / "trace.json"), "--limit", "2"]) == 0
        assert "more trace(s)" in capsys.readouterr().out

    def test_single_recording_selection(self, trace_dir, capsys):
        assert obs_main(["tree", str(trace_dir / "trace.json"), "--recording", "0"]) == 0
        out = capsys.readouterr().out
        assert "index=0" in out
        assert "index=1" not in out

    def test_unknown_recording_index_fails(self, trace_dir, capsys):
        assert obs_main(["tree", str(trace_dir / "trace.json"), "--recording", "99"]) == 2
        assert "no recording trace" in capsys.readouterr().err


class TestDiff:
    @pytest.fixture()
    def slower_trace(self, trace_dir, tmp_path):
        """A copy of the run record with every duration inflated 10x."""
        data = json.loads((trace_dir / "trace.json").read_text())

        def inflate(span):
            span["duration_ms"] *= 10.0
            for child in span["children"]:
                inflate(child)

        for span in data["spans"]:
            inflate(span)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        return path

    def test_identical_runs_pass_any_gate(self, trace_dir, capsys):
        trace = str(trace_dir / "trace.json")
        assert obs_main(["diff", trace, trace, "--fail-above", "5"]) == 0
        out = capsys.readouterr().out
        assert "+0.0%" in out

    def test_regression_beyond_gate_exits_nonzero(self, trace_dir, slower_trace, capsys):
        code = obs_main(
            ["diff", str(trace_dir / "trace.json"), str(slower_trace), "--fail-above", "5"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "+900.0%" in out

    def test_improvement_passes_the_gate(self, trace_dir, slower_trace):
        # Reversed direction: "after" is faster, so the gate passes.
        code = obs_main(
            ["diff", str(slower_trace), str(trace_dir / "trace.json"), "--fail-above", "5"]
        )
        assert code == 0
