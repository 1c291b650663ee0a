"""Smoke test of the ``python -m repro.bench`` perf harness."""

import json

from repro.bench import SCHEMA_VERSION, BenchResult, compare_ops, time_op, write_report
from repro.bench.__main__ import main

_RESULT_KEYS = {
    "op",
    "shape",
    "repeats",
    "p50_ms",
    "p95_ms",
    "serial_p50_ms",
    "serial_p95_ms",
    "speedup",
}


def test_time_op_and_compare_ops():
    p50, p95 = time_op(lambda: sum(range(100)), repeats=3)
    assert 0.0 <= p50 <= p95
    result = compare_ops("toy", "n=100", lambda: 1, lambda: 2, repeats=3)
    assert isinstance(result, BenchResult)
    assert result.speedup is not None and result.speedup > 0.0
    solo = compare_ops("toy2", "n=1", lambda: 1, repeats=2)
    assert solo.serial_p50_ms is None and solo.speedup is None


def test_write_report_schema(tmp_path):
    result = compare_ops("toy", "n=100", lambda: 1, lambda: 2, repeats=2)
    path = write_report(tmp_path / "BENCH_toy.json", [result], label="toy", quick=True, seed=0)
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["label"] == "toy"
    (run,) = payload["runs"]
    assert run["quick"] is True and run["seed"] == 0
    assert run["git_sha"] and run["machine"]
    assert set(run["results"][0]) == _RESULT_KEYS


def test_cli_quick_run_writes_both_reports(tmp_path):
    rc = main(
        ["--quick", "--repeats", "1", "--output-dir", str(tmp_path), "--seed", "1"]
    )
    assert rc == 0
    for name, expected_ops in [
        (
            "BENCH_kernels.json",
            {"welch_psd", "mfcc", "correlation_matrix", "rake_cancel", "parity_segment"},
        ),
        ("BENCH_pipeline.json", {"record_session_synthesis", "welch_mfcc_feature_path"}),
    ]:
        payload = json.loads((tmp_path / name).read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        (run,) = payload["runs"]
        assert run["quick"] is True and run["seed"] == 1
        ops = {r["op"] for r in run["results"]}
        assert expected_ops <= ops
        for record in run["results"]:
            assert set(record) == _RESULT_KEYS
            assert record["p50_ms"] > 0.0
            assert record["repeats"] == 1
            assert record["serial_p50_ms"] is not None  # every op has an oracle
    # The single-precision lane and its report are gone for good.
    assert not (tmp_path / "BENCH_backends.json").exists()
    for path in tmp_path.glob("BENCH_*.json"):
        for run in json.loads(path.read_text())["runs"]:
            assert not any(r["op"].startswith("f32.") for r in run["results"])
