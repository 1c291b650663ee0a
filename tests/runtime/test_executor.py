"""Batch-executor tests: determinism, caching, fault accounting.

These cover the runtime's acceptance criteria: parallel execution is
byte-identical to serial (features *and* quarantine, in input order),
and a warm cache serves a whole study with zero pipeline calls.
"""

import math

import numpy as np
import pytest

from repro.core import EarSonarConfig, extract_features
from repro.core.results import ProcessedRecording
from repro.errors import ConfigurationError
from repro.runtime import (
    BatchExecutor,
    FailedRecording,
    FeatureCache,
    RuntimeMetrics,
)

from .conftest import POISONED


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BatchExecutor(workers=0)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BatchExecutor(chunk_size=0)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_task_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ConfigurationError):
            BatchExecutor(task_timeout_s=timeout)


class TestSerialExecution:
    def test_outcomes_align_with_inputs(self, runtime_pipeline, runtime_study):
        result = BatchExecutor(runtime_pipeline).run(runtime_study.recordings)
        assert len(result) == len(runtime_study)
        for index, (recording, outcome) in enumerate(
            zip(runtime_study.recordings, result.outcomes)
        ):
            if index in POISONED:
                assert isinstance(outcome, FailedRecording)
                assert outcome.error_type == "NoEchoFoundError"
            else:
                assert isinstance(outcome, ProcessedRecording)
            assert outcome.participant_id == recording.participant_id
            assert outcome.day == recording.day
        assert result.ok_count == len(runtime_study) - len(POISONED)
        assert result.failed_count == len(POISONED)

    def test_matches_direct_pipeline_calls(self, runtime_pipeline, runtime_study):
        result = BatchExecutor(runtime_pipeline).run(runtime_study.recordings)
        good_index = next(
            i for i in range(len(runtime_study)) if i not in POISONED
        )
        direct = runtime_pipeline.process(runtime_study.recordings[good_index])
        batched = result.outcomes[good_index]
        np.testing.assert_array_equal(batched.features, direct.features)
        np.testing.assert_array_equal(batched.curve, direct.curve)

    def test_metrics_accounting(self, runtime_pipeline, runtime_study):
        metrics = RuntimeMetrics()
        BatchExecutor(runtime_pipeline, metrics=metrics).run(runtime_study.recordings)
        n = len(runtime_study)
        assert metrics.counter("recordings.submitted") == n
        assert metrics.counter("recordings.ok") == n - len(POISONED)
        assert metrics.counter("recordings.failed") == len(POISONED)
        assert metrics.counter("pipeline.calls") == n
        # Stage latencies recorded for every success.
        assert metrics.histogram("stage.bandpass_ms").count == n - len(POISONED)
        assert metrics.histogram("recording_ms").count == n - len(POISONED)
        assert metrics.histogram("batch_ms").count == 1


class TestParallelDeterminism:
    def test_parallel_is_byte_identical_to_serial(
        self, runtime_pipeline, runtime_study
    ):
        serial = BatchExecutor(runtime_pipeline, workers=1).run(
            runtime_study.recordings
        )
        parallel = BatchExecutor(runtime_pipeline, workers=4, chunk_size=3).run(
            runtime_study.recordings
        )
        assert len(serial) == len(parallel)
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert type(s) is type(p)
            if isinstance(s, ProcessedRecording):
                assert s.features.tobytes() == p.features.tobytes()
                assert s.curve.tobytes() == p.curve.tobytes()
                assert s.participant_id == p.participant_id
                assert s.day == p.day
            else:
                assert s == p  # FailedRecording is a frozen dataclass
        assert serial.quarantine == parallel.quarantine

    def test_extract_features_order_stable_across_worker_counts(
        self, runtime_pipeline, runtime_study
    ):
        """The ISSUE's order-stability criterion, at the FeatureTable level."""
        serial = extract_features(runtime_study, runtime_pipeline, workers=1)
        parallel = extract_features(runtime_study, runtime_pipeline, workers=4)
        assert serial.features.tobytes() == parallel.features.tobytes()
        assert serial.states == parallel.states
        assert serial.groups == parallel.groups
        assert serial.quarantine == parallel.quarantine
        assert serial.num_failed == parallel.num_failed == len(POISONED)
        assert serial.failed_states == parallel.failed_states

    def test_pool_caps_workers_at_miss_count(self, runtime_pipeline, runtime_study):
        few = list(runtime_study.recordings[:2])
        metrics = RuntimeMetrics()
        result = BatchExecutor(runtime_pipeline, workers=8, metrics=metrics).run(few)
        assert result.ok_count == 2


class TestCaching:
    def test_warm_run_makes_zero_pipeline_calls(
        self, runtime_pipeline, runtime_study
    ):
        cache = FeatureCache()
        metrics = RuntimeMetrics()
        executor = BatchExecutor(runtime_pipeline, cache=cache, metrics=metrics)

        cold = executor.run(runtime_study.recordings)
        n_ok = cold.ok_count
        assert metrics.counter("cache.hits") == 0
        assert metrics.counter("cache.misses") == len(runtime_study)
        assert metrics.counter("pipeline.calls") == len(runtime_study)

        warm = executor.run(runtime_study.recordings)
        # Successes are served from cache; poisoned recordings produced
        # nothing cacheable and are re-attempted.
        assert metrics.counter("cache.hits") == n_ok
        assert metrics.counter("pipeline.calls") == len(runtime_study) + len(POISONED)
        for c, w in zip(cold.outcomes, warm.outcomes):
            if isinstance(c, ProcessedRecording):
                assert c.features.tobytes() == w.features.tobytes()
        assert cold.quarantine == warm.quarantine

    def test_fully_cacheable_study_skips_dsp_entirely(self, runtime_pipeline, runtime_study):
        clean = [
            r
            for i, r in enumerate(runtime_study.recordings)
            if i not in POISONED
        ]
        cache = FeatureCache()
        cold_metrics = RuntimeMetrics()
        BatchExecutor(runtime_pipeline, cache=cache, metrics=cold_metrics).run(clean)
        assert cold_metrics.counter("pipeline.calls") == len(clean)

        warm_metrics = RuntimeMetrics()
        result = BatchExecutor(
            runtime_pipeline, cache=cache, metrics=warm_metrics
        ).run(clean)
        assert result.ok_count == len(clean)
        assert warm_metrics.counter("cache.hits") == len(clean)
        assert warm_metrics.counter("cache.misses") == 0
        assert warm_metrics.counter("pipeline.calls") == 0
        assert warm_metrics.cache_hit_rate == 1.0

    def test_cache_shared_between_serial_and_parallel(
        self, runtime_pipeline, runtime_study
    ):
        clean = [
            r
            for i, r in enumerate(runtime_study.recordings)
            if i not in POISONED
        ]
        cache = FeatureCache()
        parallel_metrics = RuntimeMetrics()
        BatchExecutor(
            runtime_pipeline, workers=4, cache=cache, metrics=parallel_metrics
        ).run(clean)

        warm_metrics = RuntimeMetrics()
        BatchExecutor(runtime_pipeline, cache=cache, metrics=warm_metrics).run(clean)
        assert warm_metrics.counter("pipeline.calls") == 0
        assert warm_metrics.counter("cache.hits") == len(clean)

    def test_config_change_invalidates_cache(self, runtime_pipeline, runtime_study):
        clean = [
            r
            for i, r in enumerate(runtime_study.recordings)
            if i not in POISONED
        ][:3]
        cache = FeatureCache()
        BatchExecutor(runtime_pipeline, cache=cache).run(clean)

        from repro.core import EarSonarPipeline

        other_pipeline = EarSonarPipeline(EarSonarConfig(min_echoes=4))
        metrics = RuntimeMetrics()
        BatchExecutor(other_pipeline, cache=cache, metrics=metrics).run(clean)
        assert metrics.counter("cache.hits") == 0
        assert metrics.counter("pipeline.calls") == len(clean)
