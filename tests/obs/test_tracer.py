"""Unit tests for spans, tracers, and worker trace propagation."""

from __future__ import annotations

import pytest

from repro.obs import (
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    activate_from_context,
    current_tracer,
    use_tracer,
)

from .conftest import structure


class TestSpanTree:
    def test_nesting_builds_parent_child_shape(self):
        tracer = Tracer()
        with tracer.span("recording", index=0):
            with tracer.span("stage.bandpass"):
                pass
            with tracer.span("stage.features"):
                with tracer.span("stage.mfcc"):
                    pass
        assert len(tracer.traces) == 1
        root = tracer.traces[0]
        assert root.name == "recording"
        assert [c.name for c in root.children] == ["stage.bandpass", "stage.features"]
        features = root.children[1]
        assert [c.name for c in features.children] == ["stage.mfcc"]

    def test_attrs_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("cache.lookup", index=3) as span:
            span.set("hit", True)
        root = tracer.traces[0]
        assert root.attrs == {"index": 3, "hit": True}

    def test_escaping_exception_stamps_error_attr(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("recording"):
                raise ValueError("boom")
        assert tracer.traces[0].attrs["error"] == "ValueError"

    def test_existing_error_attr_is_not_overwritten(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("recording") as span:
                span.set("error", "Custom")
                raise ValueError("boom")
        assert tracer.traces[0].attrs["error"] == "Custom"

    def test_durations_are_recorded_and_monotone(self):
        tracer = Tracer()
        with tracer.span("recording"):
            with tracer.span("stage.bandpass"):
                pass
        root = tracer.traces[0]
        child = root.children[0]
        assert root.duration_ms >= child.duration_ms >= 0.0
        assert child.start_ms >= root.start_ms

    def test_walk_yields_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        names = [s.name for s in tracer.traces[0].walk()]
        assert names == ["a", "b", "c", "d"]

    def test_roots_filters_by_name(self):
        tracer = Tracer()
        with tracer.span("recording", index=0):
            pass
        with tracer.span("executor.chunk", chunk=0):
            pass
        assert [s.attrs["index"] for s in tracer.roots("recording")] == [0]
        assert len(tracer.roots()) == 2


class TestSerialization:
    def _tree(self) -> Span:
        tracer = Tracer()
        with tracer.span("recording", index=1, participant="P001"):
            with tracer.span("stage.bandpass"):
                pass
        return tracer.traces[0]

    def test_dict_round_trip_preserves_structure_and_timing(self):
        root = self._tree()
        clone = Span.from_dict(root.to_dict())
        assert structure(clone) == structure(root)
        assert clone.start_ms == root.start_ms
        assert clone.duration_ms == root.duration_ms
        assert clone.children[0].name == "stage.bandpass"

    def test_structure_ignores_timing(self):
        a = self._tree()
        b = self._tree()
        assert structure(a) == structure(b)

    def test_structure_sorts_attrs(self):
        x = Span("s", {"b": 1, "a": 2})
        y = Span("s", {"a": 2, "b": 1})
        assert structure(x) == structure(y)

    def test_shift_translates_whole_tree(self):
        root = self._tree()
        starts = [s.start_ms for s in root.walk()]
        root.shift(100.0)
        assert [s.start_ms for s in root.walk()] == pytest.approx(
            [s + 100.0 for s in starts]
        )

    def test_adopt_rebases_onto_local_timeline(self):
        remote = Tracer()
        with remote.span("recording", index=0):
            with remote.span("stage.bandpass"):
                pass
        shipped = Span.from_dict(remote.traces[0].to_dict())

        local = Tracer()
        local.adopt(shipped)
        assert local.traces == [shipped]
        # The adopted tree's end is pinned to the local "now": it must
        # not extend past the adoption instant.
        assert shipped.start_ms + shipped.duration_ms <= local._now_ms() + 1e-6
        # Children keep their relative offsets inside the tree.
        child = shipped.children[0]
        assert child.start_ms >= shipped.start_ms


class TestAmbientTracer:
    def test_default_is_the_null_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert current_tracer().enabled is False

    def test_use_tracer_scopes_the_ambient(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with current_tracer().span("recording"):
                pass
        assert current_tracer() is NULL_TRACER
        assert len(tracer.traces) == 1


class TestNullObjects:
    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("recording", index=0) as span:
            span.set("outcome", "ok")
        assert tracer.traces == ()
        assert tracer.roots() == []
        assert tracer.roots("recording") == []

    def test_null_span_is_shared(self):
        span_a = NULL_TRACER.span("a")
        span_b = NULL_TRACER.span("b", attempt=1)
        assert isinstance(span_a, NullSpan)
        assert span_a is span_b

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("recording"):
                raise ValueError("boom")

    def test_null_adopt_discards(self):
        NULL_TRACER.adopt(Span("recording", {}))
        assert NULL_TRACER.traces == ()


class TestTraceContext:
    def test_capture_is_none_when_disabled(self):
        # Keeps the disabled path's pickled task payload identical to
        # pre-tracing builds.
        assert TraceContext.capture() is None

    def test_capture_enabled_under_a_real_tracer(self):
        with use_tracer(Tracer()):
            ctx = TraceContext.capture()
        assert ctx == TraceContext(enabled=True)

    def test_activate_from_none_yields_none_and_null_tracer(self):
        with activate_from_context(None) as tracer:
            assert tracer is None
            assert current_tracer() is NULL_TRACER

    def test_activate_from_context_yields_local_ambient_tracer(self):
        with activate_from_context(TraceContext(enabled=True)) as tracer:
            assert tracer is not None
            assert current_tracer() is tracer
            with current_tracer().span("recording", index=0):
                pass
        assert current_tracer() is NULL_TRACER
        assert [s.name for s in tracer.traces] == ["recording"]
