"""Bench reports and the report-to-report regression gate.

A report holds one run, and a rerun overwrites it.  The gate compares a
head report with the base commit's report of the same name: an op fails
only when its p50 rose and its speedup fell, each by more than 20%.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchResult,
    check_gate,
    load_report,
    machine_fingerprint,
    write_report,
)


def _result(op: str, p50: float, speedup: float = 2.0) -> BenchResult:
    return BenchResult(
        op=op,
        shape="n=8",
        repeats=3,
        p50_ms=p50,
        p95_ms=p50 * 1.2,
        serial_p50_ms=p50 * speedup,
        serial_p95_ms=p50 * speedup * 1.2,
        speedup=speedup,
    )


def _report(tmp_path, name: str, results: list[BenchResult]) -> dict:
    return write_report(tmp_path / name, results, label="x", quick=True, seed=0)


class TestWriteReport:
    def test_rerun_overwrites_the_one_run(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_report(path, [_result("op", 1.0)], label="x", quick=True, seed=0)
        written = write_report(
            path, [_result("op", 2.0)], label="x", quick=False, seed=5, config_fingerprint="c"
        )
        payload = json.loads(path.read_text())
        assert payload == written == load_report(path)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "runs" not in payload
        assert (payload["quick"], payload["seed"], payload["config_fingerprint"]) == (
            False,
            5,
            "c",
        )
        assert payload["machine"] == machine_fingerprint()
        assert [r["p50_ms"] for r in payload["results"]] == [2.0]

    def test_machine_fingerprint_is_short_and_stable(self):
        assert machine_fingerprint() == machine_fingerprint()
        assert len(machine_fingerprint()) == 12

    def test_missing_or_unreadable_report_loads_as_none(self, tmp_path):
        assert load_report(tmp_path / "missing.json") is None
        (tmp_path / "bad.json").write_text("{not json")
        assert load_report(tmp_path / "bad.json") is None


class TestGate:
    def test_passes_inside_tolerance(self, tmp_path):
        base = _report(tmp_path, "a.json", [_result("op", 1.0, speedup=2.0)])
        head = _report(tmp_path, "b.json", [_result("op", 1.15, speedup=1.7)])
        regressions, message = check_gate(head, base)
        assert regressions == []
        assert "compared 1 op(s)" in message

    def test_fails_when_both_signals_regress(self, tmp_path):
        base = _report(tmp_path, "a.json", [_result("op", 1.0, speedup=2.0)])
        head = _report(tmp_path, "b.json", [_result("op", 1.5, speedup=1.2)])
        (regression,) = check_gate(head, base)[0]
        assert regression.op == "op"
        assert regression.baseline_p50_ms == pytest.approx(1.0)
        assert regression.current_p50_ms == pytest.approx(1.5)
        assert regression.baseline_speedup == pytest.approx(2.0)
        assert regression.current_speedup == pytest.approx(1.2)

    def test_absorbs_p50_noise_when_speedup_holds(self, tmp_path):
        # Both sides of the pair slowed together (frequency scaling, a
        # noisy neighbour): p50 is 1.5x worse but the in-run speedup is
        # unchanged, so this is machine noise, not a kernel regression.
        base = _report(tmp_path, "a.json", [_result("op", 1.0, speedup=2.0)])
        head = _report(tmp_path, "b.json", [_result("op", 1.5, speedup=2.0)])
        assert check_gate(head, base)[0] == []

    @pytest.mark.parametrize(
        "key,value,why",
        [
            ("machine", "another-host", "machine fingerprint"),
            ("quick", False, "quick class"),
            ("schema_version", 2, "schema"),
        ],
        ids=["machine", "quick", "schema"],
    )
    def test_incomparable_base_compares_nothing(self, tmp_path, key, value, why):
        base = _report(tmp_path, "a.json", [_result("op", 1.0, speedup=9.0)])
        head = _report(tmp_path, "b.json", [_result("op", 9.0, speedup=1.0)])
        base[key] = value
        regressions, message = check_gate(head, base)
        assert regressions == []
        assert why in message and "nothing compared" in message

    def test_skips_added_and_retired_ops(self, tmp_path):
        base = _report(tmp_path, "a.json", [_result("old", 1.0), _result("kept", 1.0)])
        head = _report(
            tmp_path, "b.json", [_result("new", 9.0, speedup=0.5), _result("kept", 1.0)]
        )
        regressions, message = check_gate(head, base)
        assert regressions == []
        assert "compared 1 op(s)" in message

    def test_missing_base_report_compares_nothing(self, tmp_path):
        head = _report(tmp_path, "b.json", [_result("op", 9.0, speedup=1.0)])
        regressions, message = check_gate(head, load_report(tmp_path / "missing.json"))
        assert regressions == []
        assert "no base report" in message
