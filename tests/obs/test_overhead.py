"""Zero-overhead-when-disabled budget for the null telemetry objects.

Instrumentation stays permanently compiled into the pipeline and
runtime, so the disabled path's cost *is* everyone's cost.  These are
micro-budgets with deliberately generous bounds (CI machines are
noisy); the macro gate lives in the bench-smoke CI job, which fails
when a traced batch run regresses the untraced one by more than 5%.
"""

from __future__ import annotations

import time

from repro.obs import NULL_TRACER, current_health, current_tracer
from repro.obs import names as obs_names

#: Upper bound per disabled span, in microseconds.  Real cost is a few
#: hundredths of a microsecond; the slack absorbs shared-runner noise.
_BUDGET_US_PER_SPAN = 10.0

_ITERATIONS = 50_000


def _per_call_us(func) -> float:
    start = time.perf_counter()
    for _ in range(_ITERATIONS):
        func()
    return (time.perf_counter() - start) / _ITERATIONS * 1e6


class TestDisabledOverhead:
    def test_null_span_fits_the_budget(self):
        tracer = NULL_TRACER

        def one_span():
            with tracer.span("stage.bandpass"):
                pass

        assert _per_call_us(one_span) < _BUDGET_US_PER_SPAN

    def test_null_span_with_attrs_fits_the_budget(self):
        tracer = NULL_TRACER

        def one_span():
            with tracer.span("recording", index=3, participant="P001") as span:
                span.set("outcome", "ok")

        assert _per_call_us(one_span) < _BUDGET_US_PER_SPAN

    def test_ambient_lookup_plus_span_fits_the_budget(self):
        # The exact shape instrumented library code uses.
        def one_span():
            with current_tracer().span("stage.features"):
                pass

        assert _per_call_us(one_span) < _BUDGET_US_PER_SPAN

    def test_null_health_hook_fits_the_budget(self):
        # The executor's per-outcome health hook with no monitor ambient.
        def one_hook():
            current_health().increment(
                obs_names.HEALTH_SCREENINGS,
                labels={"verdict": "accepted", "reason": ""},
            )

        assert _per_call_us(one_hook) < _BUDGET_US_PER_SPAN

    def test_null_span_allocates_nothing_per_call(self):
        # The no-op span is a shared singleton: the disabled hot path
        # performs zero allocations per span.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b", index=1)
