"""Acceptance tests: tracing changes nothing, and parallelism changes nothing.

Two contracts from the observability design:

- **Bit identity** — a traced batch run produces results numerically
  identical to an untraced one; instrumentation must never perturb the
  science.
- **Tree equivalence** — a parallel run's adopted worker span trees
  have exactly the same deterministic structure (names, attributes,
  parent/child shape) as a serial run's, recording by recording.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import Tracer, names, use_tracer
from repro.runtime.executor import BatchExecutor
from repro.runtime.metrics import RuntimeMetrics

from .conftest import structure


@pytest.fixture(scope="module")
def subset(obs_recordings):
    """6 recordings including the two silent ones (indices 1 and 5)."""
    return obs_recordings[:6]


def _run(pipeline, recordings, *, workers=1, chunk_size=None, tracer=None):
    executor = BatchExecutor(
        pipeline, workers=workers, chunk_size=chunk_size, metrics=RuntimeMetrics()
    )
    if tracer is None:
        return executor.run(recordings)
    with use_tracer(tracer):
        return executor.run(recordings)


def _assert_results_identical(a, b):
    assert len(a) == len(b)
    for left, right in zip(a.outcomes, b.outcomes):
        assert type(left) is type(right)
        if hasattr(left, "features"):
            np.testing.assert_array_equal(left.features, right.features)
            np.testing.assert_array_equal(left.curve, right.curve)
            np.testing.assert_array_equal(left.mean_segment, right.mean_segment)
            assert left.quality_reasons == right.quality_reasons
        else:
            assert left == right


class TestBitIdentity:
    def test_traced_serial_run_is_bit_identical_to_untraced(self, obs_pipeline, subset):
        untraced = _run(obs_pipeline, subset)
        traced = _run(obs_pipeline, subset, tracer=Tracer())
        _assert_results_identical(untraced, traced)

    def test_traced_parallel_run_is_bit_identical_to_untraced(
        self, obs_pipeline, subset
    ):
        untraced = _run(obs_pipeline, subset)
        traced = _run(
            obs_pipeline, subset, workers=3, chunk_size=2, tracer=Tracer()
        )
        _assert_results_identical(untraced, traced)


class TestTreeEquivalence:
    def test_serial_and_parallel_span_trees_match(self, obs_pipeline, subset):
        serial = Tracer()
        _run(obs_pipeline, subset, tracer=serial)
        parallel = Tracer()
        _run(obs_pipeline, subset, workers=3, chunk_size=2, tracer=parallel)

        serial_roots = serial.roots(names.SPAN_RECORDING)
        parallel_roots = parallel.roots(names.SPAN_RECORDING)
        assert len(serial_roots) == len(parallel_roots) == len(subset)

        key = lambda span: span.attrs["index"]  # noqa: E731
        serial_structures = [
            structure(s) for s in sorted(serial_roots, key=key)
        ]
        parallel_structures = [
            structure(s) for s in sorted(parallel_roots, key=key)
        ]
        assert serial_structures == parallel_structures

    def test_every_recording_gets_exactly_one_trace(self, obs_pipeline, subset):
        tracer = Tracer()
        _run(obs_pipeline, subset, workers=2, chunk_size=3, tracer=tracer)
        indices = sorted(
            span.attrs["index"] for span in tracer.roots(names.SPAN_RECORDING)
        )
        assert indices == list(range(len(subset)))

    def test_parallel_run_adds_chunk_spans_only(self, obs_pipeline, subset):
        serial = Tracer()
        _run(obs_pipeline, subset, tracer=serial)
        parallel = Tracer()
        _run(obs_pipeline, subset, workers=3, chunk_size=2, tracer=parallel)
        serial_names = {span.name for span in serial.traces}
        parallel_names = {span.name for span in parallel.traces}
        assert parallel_names - serial_names == {names.SPAN_CHUNK}

    def test_quarantined_recording_records_outcome_in_both_modes(
        self, obs_pipeline, subset
    ):
        for workers in (1, 2):
            tracer = Tracer()
            _run(obs_pipeline, subset, workers=workers, chunk_size=2, tracer=tracer)
            failed = [
                span
                for span in tracer.roots(names.SPAN_RECORDING)
                if span.attrs.get("outcome") == "failed"
            ]
            assert sorted(span.attrs["index"] for span in failed) == [1, 5]
            assert {span.attrs["error_type"] for span in failed} == {"NoEchoFoundError"}

    def test_all_span_names_are_registered(self, obs_pipeline, subset):
        tracer = Tracer()
        _run(obs_pipeline, subset, workers=2, chunk_size=2, tracer=tracer)
        seen = {span.name for root in tracer.traces for span in root.walk()}
        assert seen <= names.SPAN_NAMES
