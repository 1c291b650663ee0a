"""Capture→verdict benchmark of the EarSonar screening system.

Run from the repository root::

    python3 e2ebench/run.py --workload study-batch --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``study-batch``, ``fleet-serve``,
``fleet-closed``, ``resubmit-serve``.  ``--trace 0`` times the workload
untraced and prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` makes the passes of ``layers.py`` and prints every
per-layer metric, writing the spans to ``.bench_trace/``.

Every outcome is checked against the direct ``EarSonarScreener.screen``
path after timing.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` next to this directory and
nowhere else; without it the run fails before printing a result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

#: Set-ups per untraced run; ``setup_s`` is their median plus import time.
SETUP_REPEATS = 2
#: Share of ``--seconds`` each of the two passes of ``--trace 1`` runs.
TRACE_FRACTION = 0.5


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import from it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"e2ebench: imported repro from {repro.__file__}, not {package}")


def _reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every child process has ended.

    The executor shuts its pools down without waiting and its manager
    thread reaps the workers, so this polls rather than joining: a join
    racing that thread can report a reaped worker as still alive.
    """
    deadline = time.monotonic() + timeout_s
    while children := multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise SystemExit(f"e2ebench: child processes did not exit: {children}")
        time.sleep(0.02)


def _end_processes() -> None:
    """End every process the run started and wait for each, on any path out.

    Pool workers still alive after ``_reap_children``'s timeout are
    killed.  Then the resource tracker that ``multiprocessing`` starts
    with the executor's first shared-memory segment is stopped and
    waited for: it exits only when every holder of its pipe has, so it
    would otherwise outlive this process as an orphan.
    """
    try:
        _reap_children()
    except SystemExit:
        for child in multiprocessing.active_children():
            child.kill()
        _reap_children()
        raise
    finally:
        resource_tracker._resource_tracker._stop()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _check(workload, passes) -> tuple[list[list[bool]], int]:
    """Per-pass correctness flags against the direct path, and the total failed."""
    from workloads import direct_outcomes

    expected = direct_outcomes(
        workload, [rec for result in passes for rec, _ in result.served]
    )
    flags = [
        [outcome == expected[id(rec)] for rec, outcome in result.served]
        for result in passes
    ]
    return flags, sum(flag.count(False) for flag in flags)


def _failure_line(result, correct: list[bool]) -> str:
    kinds = {"refused": 0, "lost": 0}
    for _, outcome in result.served:
        if outcome[0] in kinds:
            kinds[outcome[0]] += 1
    mismatched = correct.count(False) - sum(kinds.values())
    failed = correct.count(False)
    return (
        f"attempted={len(correct)} failed={failed} "
        f"failed_frac={failed / len(correct):.6f} (mismatched={mismatched} "
        f"refused={kinds['refused']} lost={kinds['lost']})"
    )


def _e2e_metrics(result, correct: list[bool], setup_s: float, rss_mb: float) -> dict:
    screened = [
        (rec, outcome) for rec, outcome in result.served if outcome[0] == "state"
    ]
    latencies = np.asarray(result.latencies_ms)
    return {
        "setup_s": setup_s,
        "captures_per_s": sum(correct) / result.wall,
        "verdict_p50_ms": float(np.percentile(latencies, 50)),
        "verdict_p95_ms": float(np.percentile(latencies, 95)),
        "ok_frac": sum(correct) / len(correct),
        "verdict_accuracy": (
            sum(outcome[1] == rec.state.value for rec, outcome in screened) / len(screened)
            if screened
            else 0.0
        ),
        "peak_rss_mb": rss_mb,
    }


def _set_up(workload_cls, args):
    """One cold set-up: plan caches are dropped first, as in a new process."""
    from repro.kernels import clear_plan_cache

    clear_plan_cache()
    started = time.perf_counter()
    workload = workload_cls(args.seed, args.seconds)
    return workload, time.perf_counter() - started


def _untraced(workload_cls, args, import_s: float) -> tuple[dict, int, int, list[str]]:
    setups, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload, seconds = _set_up(workload_cls, args)
        setups.append(seconds)
    gc.collect()  # the discarded set-ups' garbage, not the timed phase's
    try:
        result = workload.run_pass()
    finally:
        workload.close()
    _reap_children()
    rss_mb = _peak_rss_mb()
    checked = time.perf_counter()
    (correct,), failed = _check(workload, [result])
    check_s = time.perf_counter() - checked
    setup_s = import_s + statistics.median(setups)
    metrics = _e2e_metrics(result, correct, setup_s, rss_mb)
    samples = len(result.latencies_ms)
    lines = [
        _failure_line(result, correct),
        f"set-up: imports {import_s:.3f} s + median of "
        f"{', '.join(f'{s:.3f}' for s in setups)} s",
        f"latency samples={samples} (beyond p95: {samples * 0.05:.1f}) "
        f"from {result.stats['runs']:.0f} BatchExecutor.run calls",
        f"timed phase {result.wall:.3f} s, direct-path check {check_s:.3f} s",
    ]
    if result.walls:
        lines.append("run walls: " + ", ".join(f"{w:.3f}" for w in result.walls) + " s")
    return metrics, len(correct), failed, lines


def _traced(workload_cls, args) -> tuple[dict, int, int, list[str]]:
    from layers import layer_metrics, layer_report
    from tracing import Recorder, write_spans

    from workloads import WORKERS

    workload, _ = _set_up(workload_cls, args)
    recorder = Recorder()
    gc.collect()
    passes = {}
    try:
        passes["untraced"] = workload.run_pass(fraction=TRACE_FRACTION)
        passes["traced"] = workload.run_pass(recorder=recorder, fraction=TRACE_FRACTION)
        if hasattr(workload, "open_loop_pass"):
            passes["open-loop"] = workload.open_loop_pass(TRACE_FRACTION)
    finally:
        workload.close()
    _reap_children()
    write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl", recorder.spans)
    flags, failed = _check(workload, list(passes.values()))
    metrics = layer_metrics(
        passes["untraced"], passes["traced"], recorder, passes.get("open-loop")
    )
    lines = [
        f"{name} pass: " + _failure_line(result, correct)
        for (name, result), correct in zip(passes.items(), flags)
    ]
    lines.append(
        f"stages timed inside the pool workers (workers={WORKERS}): the program's "
        "tracer ships their span trees back to the parent"
    )
    lines += layer_report(metrics, recorder, passes["traced"].per_capture_ms)
    return metrics, sum(len(f) for f in flags), failed, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        _import_program()
        import workloads

        import_s = time.perf_counter() - _STARTED
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        workload_cls = workloads.WORKLOADS[args.workload]
        if args.trace:
            metrics, attempted, failed, lines = _traced(workload_cls, args)
            listed = spec["per_layer"]
        else:
            metrics, attempted, failed, lines = _untraced(workload_cls, args, import_s)
            listed = spec["end_to_end"]
    finally:
        _end_processes()

    units = {entry["name"]: entry["unit"] for entry in listed}
    if set(units) != set(metrics):
        raise SystemExit(
            f"e2ebench: metrics {sorted(set(metrics) ^ set(units))} "
            "do not match BENCHMARK.json"
        )
    print(f"e2ebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
