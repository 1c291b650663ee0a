"""Bench for the batch runtime: parallel speedup and cache economics.

Not tied to a paper figure: this tracks the throughput of the execution
layer itself — serial vs parallel ``extract_features`` (recordings/sec)
and cold-vs-warm cache behaviour — so scaling regressions surface
independently of the science.  The summary is reported as JSON so the
numbers can be diffed across runs like the other ``bench_*`` outputs.
"""

import json
import os

import pytest

from repro.core.evaluation import extract_features
from repro.experiments.common import build_study
from repro.runtime import BatchExecutor, FeatureCache, RuntimeMetrics

#: Worker count for the parallel benches (bounded: CI runners are small).
WORKERS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def runtime_study(reduced_scale):
    """A reduced study: the runtime bench times execution, not science."""
    return build_study(reduced_scale)


@pytest.fixture(scope="module")
def recordings(runtime_study):
    return list(runtime_study.recordings)


@pytest.mark.experiment
def test_runtime_serial_throughput(benchmark, pipeline, recordings):
    benchmark.group = "runtime-throughput"
    executor = BatchExecutor(pipeline, workers=1)
    result = benchmark.pedantic(
        executor.run, args=(recordings,), rounds=1, iterations=1
    )
    assert result.ok_count + result.failed_count == len(recordings)


@pytest.mark.experiment
def test_runtime_parallel_throughput(benchmark, pipeline, recordings):
    benchmark.group = "runtime-throughput"
    executor = BatchExecutor(pipeline, workers=WORKERS)
    result = benchmark.pedantic(
        executor.run, args=(recordings,), rounds=1, iterations=1
    )
    assert result.ok_count + result.failed_count == len(recordings)


@pytest.mark.experiment
def test_runtime_cold_cache(benchmark, pipeline, recordings):
    benchmark.group = "runtime-cache"

    def cold_run():
        # Fresh cache every round: always pays the full DSP.
        executor = BatchExecutor(pipeline, cache=FeatureCache())
        return executor.run(recordings)

    benchmark.pedantic(cold_run, rounds=1, iterations=1)


@pytest.mark.experiment
def test_runtime_warm_cache(benchmark, pipeline, recordings):
    benchmark.group = "runtime-cache"
    executor = BatchExecutor(pipeline, cache=FeatureCache())
    executor.run(recordings)  # prime outside the timed region
    benchmark(executor.run, recordings)


@pytest.mark.experiment
def test_runtime_shape_and_report(benchmark, report, pipeline, recordings):
    """Assert the runtime's economic claims and emit the JSON summary."""
    benchmark.group = "runtime-cache"

    def timed(func):
        import time

        t0 = time.perf_counter()
        out = func()
        return out, time.perf_counter() - t0

    serial_metrics = RuntimeMetrics()
    _, serial_s = timed(
        lambda: extract_features(
            recordings, pipeline, metrics=serial_metrics
        )
    )

    parallel_metrics = RuntimeMetrics()
    _, parallel_s = timed(
        lambda: extract_features(
            recordings, pipeline, workers=WORKERS, metrics=parallel_metrics
        )
    )

    cache = FeatureCache()
    cold_metrics = RuntimeMetrics()
    _, cold_s = timed(
        lambda: BatchExecutor(pipeline, cache=cache, metrics=cold_metrics).run(
            recordings
        )
    )
    warm_metrics = RuntimeMetrics()
    warm_result, warm_s = timed(
        lambda: BatchExecutor(pipeline, cache=cache, metrics=warm_metrics).run(
            recordings
        )
    )
    benchmark(lambda: warm_metrics.cache_hit_rate)

    n = len(recordings)
    summary = {
        "experiment": "runtime",
        "recordings": n,
        "workers": WORKERS,
        "serial_rec_per_s": round(n / serial_s, 2),
        "parallel_rec_per_s": round(n / parallel_s, 2),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "cold_rec_per_s": round(n / cold_s, 2),
        "warm_rec_per_s": round(n / warm_s, 2),
        "warm_speedup": round(cold_s / warm_s, 2),
        "warm_cache_hit_rate": warm_metrics.cache_hit_rate,
        "warm_pipeline_calls": warm_metrics.counter("pipeline.calls"),
    }
    text = json.dumps(summary, indent=2)
    print()
    print(text)
    report(text)

    # Shape claims: the warm cache must eliminate DSP work entirely for
    # the cacheable recordings, and be far faster than a cold run.
    ok = warm_result.ok_count
    assert warm_metrics.counter("cache.hits") == ok
    failed = warm_result.failed_count
    assert warm_metrics.counter("pipeline.calls") == failed
    if failed == 0:
        assert warm_s < cold_s / 10.0
