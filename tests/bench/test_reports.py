"""Bench report persistence: multi-run reports and the perf trajectory.

The report schema exists to make the perf history *append-only across
commits*: re-benchmarking the same commit replaces its own run,
benchmarking a new commit appends, and nothing ever silently clobbers
another commit's numbers.  The trajectory file is stricter still —
every invocation appends — and feeds the CI regression gate.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchResult,
    machine_fingerprint,
    write_report,
)
from repro.bench.trajectory import append_entry, check_gate, load_entries


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


class TestWriteReport:
    def test_same_key_replaces_in_place(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        stamp = dict(label="x", quick=False, seed=0, sha="aaa", machine="m1")
        write_report(path, [_result("op", 1.0)], **stamp)
        write_report(path, [_result("op", 2.0)], **stamp)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert len(payload["runs"]) == 1
        assert payload["runs"][0]["results"][0]["p50_ms"] == 2.0

    def test_different_sha_appends_instead_of_clobbering(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_report(
            path, [_result("op", 1.0)], label="x", quick=False, seed=0, sha="aaa"
        )
        write_report(
            path, [_result("op", 2.0)], label="x", quick=False, seed=0, sha="bbb"
        )
        runs = json.loads(path.read_text())["runs"]
        assert [r["git_sha"] for r in runs] == ["aaa", "bbb"]
        assert runs[0]["results"][0]["p50_ms"] == 1.0  # aaa's numbers survive

    def test_quick_and_full_runs_coexist(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_report(
            path, [_result("op", 1.0)], label="x", quick=True, seed=0, sha="aaa"
        )
        write_report(
            path, [_result("op", 9.0)], label="x", quick=False, seed=0, sha="aaa"
        )
        assert len(json.loads(path.read_text())["runs"]) == 2

    def test_machine_fingerprint_is_short_and_stable(self):
        assert machine_fingerprint() == machine_fingerprint()
        assert len(machine_fingerprint()) == 12


class TestTrajectory:
    def test_every_invocation_appends(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        for p50 in (1.0, 1.1):
            append_entry(
                path,
                [_result("op", p50)],
                seed=0,
                quick=True,
                sha="aaa",
                machine="m1",
            )
        entries = load_entries(path)
        assert len(entries) == 2
        assert entries[1]["ops"]["op"]["p50_ms"] == 1.1

    def test_gate_passes_inside_tolerance(self, tmp_path):
        path = tmp_path / "t.json"
        append_entry(path, [_result("op", 1.0)], seed=0, quick=True, machine="m1")
        append_entry(path, [_result("op", 1.15)], seed=0, quick=True, machine="m1")
        regressions, _ = check_gate(path, tolerance=0.20)
        assert regressions == []

    def test_gate_fails_when_both_signals_regress(self, tmp_path):
        path = tmp_path / "t.json"
        append_entry(
            path, [_result("op", 1.0, speedup=2.0)], seed=0, quick=True, machine="m1"
        )
        append_entry(
            path, [_result("op", 1.5, speedup=1.2)], seed=0, quick=True, machine="m1"
        )
        regressions, _ = check_gate(path, tolerance=0.20)
        assert [r.op for r in regressions] == ["op"]
        assert regressions[0].ratio == pytest.approx(1.5)
        assert regressions[0].baseline_speedup == pytest.approx(2.0)
        assert regressions[0].current_speedup == pytest.approx(1.2)

    def test_gate_absorbs_p50_noise_when_speedup_holds(self, tmp_path):
        # Both lanes of the pair slowed together (frequency scaling, a
        # noisy neighbour): p50 is 1.5x worse but the in-run speedup is
        # unchanged, so this is machine noise, not a kernel regression.
        path = tmp_path / "t.json"
        append_entry(
            path, [_result("op", 1.0, speedup=2.0)], seed=0, quick=True, machine="m1"
        )
        append_entry(
            path, [_result("op", 1.5, speedup=2.0)], seed=0, quick=True, machine="m1"
        )
        regressions, _ = check_gate(path, tolerance=0.20)
        assert regressions == []

    def test_gate_never_compares_across_machines(self, tmp_path):
        path = tmp_path / "t.json"
        append_entry(path, [_result("op", 1.0)], seed=0, quick=True, machine="m1")
        append_entry(path, [_result("op", 9.0)], seed=0, quick=True, machine="m2")
        regressions, message = check_gate(path, tolerance=0.20)
        assert regressions == []
        assert "no prior same-machine entry" in message

    def test_gate_never_compares_quick_against_full(self, tmp_path):
        path = tmp_path / "t.json"
        append_entry(path, [_result("op", 1.0)], seed=0, quick=False, machine="m1")
        append_entry(path, [_result("op", 9.0)], seed=0, quick=True, machine="m1")
        regressions, _ = check_gate(path, tolerance=0.20)
        assert regressions == []

    def test_gate_skips_added_and_retired_ops(self, tmp_path):
        path = tmp_path / "t.json"
        append_entry(path, [_result("old", 1.0)], seed=0, quick=True, machine="m1")
        append_entry(path, [_result("new", 9.0)], seed=0, quick=True, machine="m1")
        regressions, message = check_gate(path, tolerance=0.20)
        assert regressions == []
        assert "compared 0 op(s)" in message

    def test_gate_on_empty_file_is_vacuously_green(self, tmp_path):
        regressions, message = check_gate(tmp_path / "missing.json")
        assert regressions == []
        assert "no trajectory entries" in message
