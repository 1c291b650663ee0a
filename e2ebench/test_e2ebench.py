"""Self-test of the benchmark: tiny runs of every workload, untraced and traced.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: fleet-serve is not in BENCHMARK.json (too few requests per run for
#: steady percentiles) but stays runnable on demand.
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]] + ["fleet-serve"]
#: Workloads whose traced run passes through the DSP stages, the gate or
#: the generator, and so must report them.
MEASURES = {
    "study-batch": ("signal.parity.self_ms", "core.spectrum.self_ms"),
    "fleet-closed": ("signal.rake.self_ms", "core.calibration.self_ms",
                     "quality.gate.self_ms", "loadgen.lag_p95_ms"),
    "fleet-serve": ("signal.rake.self_ms", "loadgen.lag_p95_ms"),
    "resubmit-serve": ("quality.gate.self_ms", "runtime.cache.key_ms"),
}
SEED = 3

sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import Span, children_of, self_times  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload: str, trace: int) -> tuple[str, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    return proc.stdout, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    stdout, result = _result(workload, 0)
    assert "failed_frac=0.000000" in stdout
    units = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert name in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_self_times_fit(workload):
    stdout, result = _result(workload, 1)
    units = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert 0.0 <= result["metrics"]["trace.unattributed_frac"]["value"] < 1.0
    for name in MEASURES[workload]:
        assert result["metrics"][name]["value"] > 0, name

    lines = (ROOT / ".bench_trace" / f"{workload}-seed{SEED}.jsonl").read_text()
    spans = [Span(**json.loads(line)) for line in lines.splitlines()]
    from layers import ROOTS, links

    children = children_of(spans, links(spans))
    selfs = self_times(spans, children)
    roots = [span for span in spans if span.name in ROOTS]
    assert roots
    for root in roots:
        stack = [root.index]
        while stack:
            index = stack.pop()
            assert 0.0 <= selfs[index] <= root.duration + 1e-9, spans[index]
            stack.extend(children.get(index, ()))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 4.0, 0, None),
        Span(2, "b", 3.0, 6.0, 0, None),  # overlaps a: union is 1..6
        Span(3, "c", 9.0, 12.0, None, None),  # linked, clipped to 9..10
        Span(4, "w", 2.0, 8.0, 0, None, worker=True),  # ran in a pool worker
        Span(5, "x", 3.0, 5.0, 4, None, worker=True),
    ]
    selfs = self_times(spans, children_of(spans, {0: [3]}))
    assert selfs == pytest.approx([10.0 - 5.0 - 1.0, 3.0, 3.0, 3.0, 4.0, 2.0])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
