"""Every documented metric name is emitted by an end-to-end batch run.

``repro.obs.names`` declares the canonical counter and histogram
vocabulary; the :class:`~repro.runtime.metrics.RuntimeMetrics`
docstring documents the same names.  This suite drives one shared
registry through the scenarios that produce each family — cold/warm
cache, corruption, a pipeline-degraded capture, pool faults, timeouts,
and the daemon fallback — then asserts the registry contains *every*
canonical name, so the documentation cannot drift from what the
runtime actually emits.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import EarSonarConfig, RobustnessConfig
from repro.core.pipeline import EarSonarPipeline
from repro.obs import names
from repro.runtime.cache import FeatureCache
from repro.runtime.chaos import FaultInjector
from repro.runtime.executor import BatchExecutor
from repro.runtime.metrics import RuntimeMetrics


@pytest.fixture(scope="module")
def exercised(obs_pipeline, obs_recordings, tmp_path_factory):
    """One registry after every canonical-emission scenario has run."""
    metrics = RuntimeMetrics()
    clean = [r for i, r in enumerate(obs_recordings[:6]) if i != 1]
    silent = obs_recordings[1]

    # Cold pass / corrupt-entry pass / warm pass over a disk cache; the
    # silent capture fails every pass.
    cache_dir = tmp_path_factory.mktemp("cache")
    cached = BatchExecutor(
        obs_pipeline,
        cache=FeatureCache(directory=cache_dir),
        metrics=metrics,
    )
    batch = clean[:3] + [silent]
    cached.run(batch)  # cold: misses, pipeline calls, one failure
    cached.cache.clear_memory()
    for entry in cache_dir.glob("*.npz"):
        entry.write_bytes(b"not an npz archive")
    cached.run(batch)  # corrupt: evictions, recompute
    cached.run(batch)  # warm: hits

    # A capture with a few NaN samples, zero-filled under the
    # sanitizing robustness policy: screened, but tagged ``non_finite``.
    waveform = clean[0].waveform.copy()
    waveform[:: waveform.size // 8] = np.nan
    damaged = dataclasses.replace(clean[0], waveform=waveform)
    sanitizing = EarSonarPipeline(
        EarSonarConfig(robustness=RobustnessConfig(sanitize_nonfinite=True))
    )
    BatchExecutor(sanitizing, metrics=metrics).run([damaged])

    # Pool fault: the first chunk trips an injected error.
    BatchExecutor(
        obs_pipeline,
        workers=2,
        chunk_size=1,
        metrics=metrics,
        fault_injector=FaultInjector(mode="error", indices=(0,)),
    ).run(clean[:2])

    # Deadline overrun: the first recording hangs past its timeout.
    BatchExecutor(
        obs_pipeline,
        workers=2,
        chunk_size=1,
        task_timeout_s=0.2,
        metrics=metrics,
        fault_injector=FaultInjector(mode="hang", indices=(0,), hang_s=1.5),
    ).run(clean[:2])

    # Daemon fallback: a daemonized parent cannot fork pool workers.
    import repro.runtime.executor as executor_mod

    class _DaemonProcess:
        daemon = True

    original = executor_mod.multiprocessing.current_process
    executor_mod.multiprocessing.current_process = lambda: _DaemonProcess()
    try:
        BatchExecutor(obs_pipeline, workers=2, metrics=metrics).run(clean[:1])
    finally:
        executor_mod.multiprocessing.current_process = original

    return metrics


class TestCanonicalEmission:
    def test_every_documented_counter_is_emitted(self, exercised):
        report = exercised.report()
        missing = {
            name
            for name in names.CANONICAL_COUNTERS
            if report["counters"].get(name, 0) <= 0
        }
        assert not missing, f"counters never emitted: {sorted(missing)}"

    def test_every_documented_histogram_is_emitted(self, exercised):
        report = exercised.report()
        missing = {
            name
            for name in names.CANONICAL_HISTOGRAMS
            if report["histograms"].get(name, {}).get("count", 0) <= 0
        }
        assert not missing, f"histograms never observed: {sorted(missing)}"

    def test_no_undocumented_counters_leak(self, exercised):
        report = exercised.report()
        unknown = (
            set(report["counters"])
            - names.CANONICAL_COUNTERS
            - names.ECHO_CONDITIONAL_COUNTERS
        )
        assert not unknown, f"undocumented counters: {sorted(unknown)}"

    def test_no_undocumented_histograms_leak(self, exercised):
        report = exercised.report()
        unknown = set(report["histograms"]) - names.CANONICAL_HISTOGRAMS
        assert not unknown, f"undocumented histograms: {sorted(unknown)}"

    def test_documented_names_agree_with_metrics_docstring(self):
        doc = RuntimeMetrics.__doc__ or ""
        for name in sorted(names.CANONICAL_COUNTERS | names.CANONICAL_HISTOGRAMS):
            assert name in doc, f"{name} missing from RuntimeMetrics docstring"
