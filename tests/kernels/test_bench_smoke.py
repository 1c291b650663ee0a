"""Smoke test of the ``python -m repro.bench`` perf harness."""

import itertools
import json
import types

import pytest

import repro.bench as bench
from repro.bench import SCHEMA_VERSION, BenchResult, compare_ops, write_report
from repro.bench.__main__ import main, overhead_pct

_REPORT_KEYS = {
    "schema_version",
    "label",
    "git_sha",
    "seed",
    "quick",
    "machine",
    "config_fingerprint",
    "results",
}
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


def test_compare_ops_times_the_pair_call_by_call():
    calls = []
    result = compare_ops(
        "toy",
        "n=1",
        lambda: calls.append("batched"),
        lambda: calls.append("serial"),
        repeats=3,
    )
    # One untimed warmup of each side, then the sides alternate.
    assert calls == ["batched", "serial"] * 4
    assert isinstance(result, BenchResult)
    assert result.repeats == 3
    assert 0.0 <= result.p50_ms <= result.p95_ms
    assert 0.0 <= result.serial_p50_ms <= result.serial_p95_ms
    assert result.speedup > 0.0
    with pytest.raises(ValueError, match="repeats"):
        compare_ops("toy", "n=1", lambda: 1, lambda: 2, repeats=0)


def test_speedup_is_the_median_of_per_round_ratios(monkeypatch):
    # Per-round call times in ms: round 1 is 3x faster batched, rounds 2
    # and 3 are even.  The per-round ratios 3, 1, 1 have median 1, while
    # the ratio of the two p50s (3 ms over 2 ms) would read 1.5x.
    batched_ms, serial_ms = (1.0, 2.0, 4.0), (3.0, 2.0, 4.0)
    ticks = [0.0]
    for ms in itertools.chain.from_iterable(zip(batched_ms, serial_ms)):
        ticks += [ticks[-1], ticks[-1] + ms / 1e3]
    clock = iter(ticks[1:])
    stub = types.SimpleNamespace(perf_counter=lambda: next(clock))
    monkeypatch.setattr(bench, "time", stub)
    result = compare_ops("toy", "n=1", lambda: None, lambda: None, repeats=3)
    assert result.p50_ms == pytest.approx(2.0)
    assert result.serial_p50_ms == pytest.approx(3.0)
    assert result.speedup == pytest.approx(1.0)
    assert overhead_pct(result) == pytest.approx(0.0)


def test_write_report_schema(tmp_path):
    result = compare_ops("toy", "n=100", lambda: 1, lambda: 2, repeats=2)
    path = tmp_path / "BENCH_toy.json"
    write_report(path, [result], label="toy", quick=True, seed=0)
    payload = json.loads(path.read_text())
    assert set(payload) == _REPORT_KEYS
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["label"] == "toy"
    assert payload["quick"] is True and payload["seed"] == 0
    assert payload["git_sha"] and payload["machine"]
    assert set(payload["results"][0]) == _RESULT_KEYS


def test_cli_quick_run_writes_both_reports(tmp_path):
    rc = main(
        ["--quick", "--repeats", "1", "--output-dir", str(tmp_path), "--seed", "1"]
    )
    assert rc == 0
    for name, expected_ops in [
        (
            "BENCH_stages.json",
            {"stage.bandpass", "stage.events", "stage.parity", "stage.spectrum",
             "stage.rake"},
        ),
        ("BENCH_obs.json", {"batch_screening_traced"}),
    ]:
        payload = json.loads((tmp_path / name).read_text())
        assert set(payload) == _REPORT_KEYS
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["quick"] is True and payload["seed"] == 1
        assert payload["config_fingerprint"]
        assert {r["op"] for r in payload["results"]} == expected_ops
        for record in payload["results"]:
            assert set(record) == _RESULT_KEYS
            assert record["p50_ms"] > 0.0
            assert record["repeats"] == 1
            assert record["serial_p50_ms"] > 0.0  # every op has an oracle
    # The micro-op reports and the single-precision lane's are gone.
    assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == [
        "BENCH_obs.json",
        "BENCH_stages.json",
    ]


def test_cli_gates_each_report_against_its_base(tmp_path, capsys):
    run = ["--quick", "--repeats", "1", "--seed", "1", "--output-dir"]
    assert main(run + [str(tmp_path / "a"), "--gate", str(tmp_path / "missing")]) == 0
    assert capsys.readouterr().out.count("no base report: nothing compared") == 2
    # A doctored base in which every op was 10x faster against its oracle.
    for path in (tmp_path / "a").glob("BENCH_*.json"):
        payload = json.loads(path.read_text())
        for record in payload["results"]:
            record["p50_ms"] /= 10.0
            record["speedup"] *= 10.0
        path.write_text(json.dumps(payload))
    assert main(run + [str(tmp_path / "b"), "--gate", str(tmp_path / "a")]) == 1
    out = capsys.readouterr().out
    assert "compared 5 op(s)" in out and "compared 1 op(s)" in out
    assert out.count("FAIL:") == 6


def test_cli_rejects_repeats_below_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--quick", "--repeats", "0", "--output-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--repeats must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # rejected before any input was built
