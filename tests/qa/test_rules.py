"""Per-rule tests: fixture modules with known violations at known lines.

Each test declares a small source tree inline and asserts the exact
``(rule, line)`` pairs the engine reports — both that real violations
are caught *where they are*, and that the sanctioned idioms nearby stay
silent.
"""

from __future__ import annotations

from repro.qa.rules import (
    DeterminismRule,
    ExceptionBoundaryRule,
    FingerprintCompletenessRule,
    PoolSafetyRule,
    PublicApiRule,
    TelemetryDisciplineRule,
    UnitDisciplineRule,
)


def pairs(findings):
    """(rule, line) pairs of findings, sorted."""
    return sorted((f.rule, f.line) for f in findings)


# ---------------------------------------------------------------------------
# QA001 — determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_flags_entropy_and_clock_sources(self, findings_of):
        findings = findings_of(
            DeterminismRule,
            {
                "repro/signal/bad.py": """
                    import random
                    import time
                    import numpy as np

                    def jitter(x):
                        noise = np.random.rand(3)
                        random.shuffle(x)
                        stamp = time.time()
                        rng = np.random.default_rng(42)
                        return noise, stamp, rng
                    """
            },
        )
        assert pairs(findings) == [
            ("QA001", 1),  # import random
            ("QA001", 6),  # np.random.rand
            ("QA001", 7),  # random.shuffle
            ("QA001", 8),  # time.time()
            ("QA001", 9),  # default_rng(42) literal seed
        ]

    def test_flags_unseeded_default_rng(self, findings_of):
        findings = findings_of(
            DeterminismRule,
            {
                "repro/features/bad.py": """
                    import numpy as np

                    def sample():
                        return np.random.default_rng().standard_normal()
                    """
            },
        )
        assert pairs(findings) == [("QA001", 4)]

    def test_allows_threaded_generator_and_perf_counter(self, findings_of):
        findings = findings_of(
            DeterminismRule,
            {
                "repro/simulation/good.py": """
                    import time
                    import numpy as np

                    def simulate(rng: np.random.Generator, seed):
                        t0 = time.perf_counter()
                        rng2 = np.random.default_rng(seed)  # seed is threaded, not literal
                        return rng.standard_normal(), rng2, time.perf_counter() - t0
                    """
            },
        )
        assert findings == []

    def test_out_of_scope_packages_are_ignored(self, findings_of):
        findings = findings_of(
            DeterminismRule,
            {
                "repro/runtime/clocky.py": """
                    import time

                    def stamp():
                        return time.time()
                    """
            },
        )
        assert findings == []

    def test_local_variable_named_random_is_not_flagged(self, findings_of):
        findings = findings_of(
            DeterminismRule,
            {
                "repro/core/shadow.py": """
                    def pick(random):
                        return random.choice()
                    """
            },
        )
        assert findings == []

    def test_serve_modules_must_use_the_injected_clock(self, findings_of):
        findings = findings_of(
            DeterminismRule,
            {
                "repro/serve/sleepy.py": """
                    import asyncio
                    import time

                    async def nap():
                        await asyncio.sleep(0.1)
                        return time.monotonic()
                    """
            },
        )
        assert pairs(findings) == [
            ("QA001", 5),  # asyncio.sleep bypasses the Clock
            ("QA001", 6),  # time.monotonic bypasses the Clock
        ]

    def test_serve_clock_module_is_the_sanctioned_boundary(self, findings_of):
        findings = findings_of(
            DeterminismRule,
            {
                "repro/serve/clock.py": """
                    import asyncio
                    import time

                    class MonotonicClock:
                        def now(self):
                            return time.monotonic()

                        async def sleep(self, seconds):
                            await asyncio.sleep(seconds)
                    """
            },
        )
        assert findings == []

    def test_serve_code_on_an_injected_clock_is_clean(self, findings_of):
        findings = findings_of(
            DeterminismRule,
            {
                "repro/serve/polite.py": """
                    async def wait(clock, seconds):
                        deadline = clock.now() + seconds
                        await clock.sleep(seconds)
                        return deadline
                    """
            },
        )
        assert findings == []


# ---------------------------------------------------------------------------
# QA002 — fingerprint completeness
# ---------------------------------------------------------------------------

GOOD_CONFIG_TREE = {
    "repro/signal/chirp.py": """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ChirpDesign:
            sample_rate: float = 48_000.0
            bandwidth: float = 4_000.0
        """,
    "repro/core/config.py": """
        from dataclasses import dataclass, field

        from ..signal.chirp import ChirpDesign

        @dataclass(frozen=True)
        class EarSonarConfig:
            chirp: ChirpDesign = field(default_factory=ChirpDesign)
            min_echoes: int = 3
        """,
}


class TestFingerprintCompleteness:
    def test_clean_tree_passes(self, findings_of):
        assert findings_of(FingerprintCompletenessRule, GOOD_CONFIG_TREE) == []

    def test_classvar_and_bare_attribute_escape_fingerprint(self, findings_of):
        files = dict(GOOD_CONFIG_TREE)
        files["repro/core/config.py"] = """
            from dataclasses import dataclass, field
            from typing import ClassVar

            from ..signal.chirp import ChirpDesign

            @dataclass(frozen=True)
            class EarSonarConfig:
                chirp: ChirpDesign = field(default_factory=ChirpDesign)
                debug: ClassVar[bool] = False
                cache_dir = "/tmp/cache"
            """
        findings = findings_of(FingerprintCompletenessRule, files)
        assert pairs(findings) == [("QA002", 9), ("QA002", 10)]

    def test_unfrozen_nested_config_is_flagged_across_modules(self, findings_of):
        files = dict(GOOD_CONFIG_TREE)
        files["repro/signal/chirp.py"] = """
            from dataclasses import dataclass

            @dataclass
            class ChirpDesign:
                sample_rate: float = 48_000.0
            """
        findings = findings_of(FingerprintCompletenessRule, files)
        assert pairs(findings) == [("QA002", 4)]
        assert findings[0].path == "repro/signal/chirp.py"

    def test_non_dataclass_in_tree_is_flagged_at_field_site(self, findings_of):
        files = dict(GOOD_CONFIG_TREE)
        files["repro/signal/chirp.py"] = """
            class ChirpDesign:
                pass
            """
        findings = findings_of(FingerprintCompletenessRule, files)
        # Reported at the field referencing the unusable type, which is
        # where the fingerprint would break.
        assert pairs(findings) == [("QA002", 7)]
        assert findings[0].path == "repro/core/config.py"


# ---------------------------------------------------------------------------
# QA003 — pool safety
# ---------------------------------------------------------------------------


class TestPoolSafety:
    def test_flags_lambda_nested_and_bound(self, findings_of):
        findings = findings_of(
            PoolSafetyRule,
            {
                "repro/runtime/dispatch.py": """
                    from concurrent.futures import ProcessPoolExecutor

                    def fan_out(executor, items, handler):
                        def local(x):
                            return x + 1
                        with ProcessPoolExecutor() as pool:
                            pool.submit(local, 1)
                            pool.submit(lambda v: v * 2, 2)
                            pool.submit(handler.process, 3)
                            pool.map(local, items)
                    """
            },
        )
        assert pairs(findings) == [
            ("QA003", 7),  # nested function via submit
            ("QA003", 8),  # lambda via submit
            ("QA003", 9),  # bound method via submit
            ("QA003", 10),  # nested function via pool.map
        ]

    def test_module_level_function_passes(self, findings_of):
        findings = findings_of(
            PoolSafetyRule,
            {
                "repro/runtime/ok.py": """
                    from concurrent.futures import ProcessPoolExecutor
                    from functools import partial

                    def worker(x, scale=1):
                        return x * scale

                    def fan_out(items):
                        with ProcessPoolExecutor() as pool:
                            pool.submit(worker, 1)
                            pool.submit(partial(worker, scale=2), 3)
                            pool.map(worker, items)
                    """
            },
        )
        assert findings == []

    def test_lambda_assigned_to_name_is_flagged(self, findings_of):
        findings = findings_of(
            PoolSafetyRule,
            {
                "repro/runtime/sneaky.py": """
                    double = lambda v: v * 2

                    def fan_out(pool):
                        pool.submit(double, 2)
                    """
            },
        )
        assert pairs(findings) == [("QA003", 4)]

    def test_serve_modules_are_covered_too(self, findings_of):
        # The service resizes and reuses the executor's pool; the same
        # pickle-safety rules apply to anything it dispatches.
        findings = findings_of(
            PoolSafetyRule,
            {
                "repro/serve/dispatcher.py": """
                    def drain(pool, batch):
                        handler = lambda item: item.process()
                        return [pool.submit(handler, item) for item in batch]
                    """
            },
        )
        assert pairs(findings) == [("QA003", 3)]


# ---------------------------------------------------------------------------
# QA004 — unit discipline
# ---------------------------------------------------------------------------


class TestUnitDiscipline:
    def test_flags_magic_rate_in_function_body(self, findings_of):
        findings = findings_of(
            UnitDisciplineRule,
            {
                "repro/signal/resample.py": """
                    def upsample(x):
                        target = 48_000.0
                        return x, target, 44100
                    """
            },
        )
        assert pairs(findings) == [("QA004", 2), ("QA004", 3)]

    def test_allows_config_defaults_and_named_constants(self, findings_of):
        findings = findings_of(
            UnitDisciplineRule,
            {
                "repro/signal/config.py": """
                    from dataclasses import dataclass, field

                    DEFAULT_RATE = 48_000.0

                    @dataclass(frozen=True)
                    class Design:
                        sample_rate: float = 48_000.0
                        upsampled: float = 384_000.0

                    def use(design: Design):
                        return design.sample_rate * 2
                    """
            },
        )
        assert findings == []

    def test_out_of_scope_packages_are_ignored(self, findings_of):
        findings = findings_of(
            UnitDisciplineRule,
            {
                "repro/simulation/hw.py": """
                    def device_rate():
                        return 44100
                    """
            },
        )
        assert findings == []

    def test_simulation_calibration_module_is_in_scope(self, findings_of):
        # The drift simulator is physics the analysis side calibrates
        # against, so it is held to DSP unit discipline even though the
        # rest of repro.simulation is exempt.
        findings = findings_of(
            UnitDisciplineRule,
            {
                "repro/simulation/calibration.py": """
                    def drift_rate():
                        rate = 48_000
                        return rate
                    """
            },
        )
        assert pairs(findings) == [("QA004", 2)]

    def test_acoustics_reverb_module_is_in_scope(self, findings_of):
        findings = findings_of(
            UnitDisciplineRule,
            {
                "repro/acoustics/reverb.py": """
                    def tail(x):
                        return x / 44100.0
                    """
            },
        )
        assert pairs(findings) == [("QA004", 2)]


# ---------------------------------------------------------------------------
# QA005 — public-API hygiene
# ---------------------------------------------------------------------------


class TestPublicApi:
    def test_flags_missing_docstring_annotations_and_ghost_export(self, findings_of):
        findings = findings_of(
            PublicApiRule,
            {
                "repro/learning/api.py": """
                    __all__ = ["fit", "Model", "ghost"]

                    def fit(features, labels) -> None:
                        pass

                    class Model:
                        pass
                    """
            },
        )
        assert pairs(findings) == [
            ("QA005", 1),  # ghost export
            ("QA005", 3),  # fit: no docstring
            ("QA005", 3),  # fit: unannotated params
            ("QA005", 6),  # Model: no docstring
        ]

    def test_clean_module_passes(self, findings_of):
        findings = findings_of(
            PublicApiRule,
            {
                "repro/learning/ok.py": """
                    __all__ = ["fit", "Model", "helper", "LIMIT"]

                    from os.path import join as helper

                    LIMIT = 3

                    def fit(features: list, labels: list) -> None:
                        '''Fit the thing.'''

                    class Model:
                        '''A model.'''
                    """
            },
        )
        assert findings == []


# ---------------------------------------------------------------------------
# QA006 — exception boundaries
# ---------------------------------------------------------------------------


class TestExceptionBoundary:
    def test_flags_bare_and_broad_handlers(self, findings_of):
        findings = findings_of(
            ExceptionBoundaryRule,
            {
                "repro/signal/bad.py": """
                    def process(x):
                        try:
                            return x + 1
                        except Exception:
                            return None

                    def swallow(x):
                        try:
                            return x * 2
                        except:
                            return None
                    """
            },
        )
        assert pairs(findings) == [
            ("QA006", 4),  # except Exception
            ("QA006", 10),  # bare except
        ]

    def test_flags_broad_names_inside_tuples_and_attributes(self, findings_of):
        findings = findings_of(
            ExceptionBoundaryRule,
            {
                "repro/core/bad.py": """
                    import builtins

                    def f(x):
                        try:
                            return x
                        except (ValueError, Exception):
                            return None

                    def g(x):
                        try:
                            return x
                        except builtins.BaseException:
                            return None
                    """
            },
        )
        assert pairs(findings) == [
            ("QA006", 6),  # Exception hidden in a tuple
            ("QA006", 12),  # builtins.BaseException
        ]

    def test_narrow_handlers_stay_silent(self, findings_of):
        findings = findings_of(
            ExceptionBoundaryRule,
            {
                "repro/features/ok.py": """
                    def f(x):
                        try:
                            return float(x)
                        except (TypeError, ValueError) as exc:
                            raise RuntimeError("bad input") from exc
                    """
            },
        )
        assert findings == []

    def test_quarantine_boundary_modules_are_exempt(self, findings_of):
        boundary_source = """
            def merge(results):
                try:
                    return list(results)
                except Exception:
                    return []
            """
        findings = findings_of(
            ExceptionBoundaryRule,
            {
                "repro/runtime/executor.py": boundary_source,
                "repro/runtime/faults.py": boundary_source,
            },
        )
        assert findings == []

    def test_non_boundary_runtime_module_is_not_exempt(self, findings_of):
        findings = findings_of(
            ExceptionBoundaryRule,
            {
                "repro/runtime/cache.py": """
                    def load(path):
                        try:
                            return open(path).read()
                        except Exception:
                            return None
                    """
            },
        )
        assert pairs(findings) == [("QA006", 4)]

    def test_serve_dispatch_boundary_is_exempt(self, findings_of):
        # serve.service fences crashed batch runners the same way the
        # executor fences pool workers: a broad handler is the contract.
        findings = findings_of(
            ExceptionBoundaryRule,
            {
                "repro/serve/service.py": """
                    def dispatch(runner, batch):
                        try:
                            return runner(batch)
                        except Exception as exc:
                            return exc
                    """
            },
        )
        assert findings == []

    def test_other_serve_modules_are_not_exempt(self, findings_of):
        findings = findings_of(
            ExceptionBoundaryRule,
            {
                "repro/serve/limiter.py": """
                    def acquire(bucket):
                        try:
                            return bucket.take()
                        except Exception:
                            return None
                    """
            },
        )
        assert pairs(findings) == [("QA006", 4)]


# ---------------------------------------------------------------------------
# QA007 — telemetry discipline
# ---------------------------------------------------------------------------


class TestTelemetryDiscipline:
    def test_print_and_stream_writes_flagged_in_library_modules(self, findings_of):
        findings = findings_of(
            TelemetryDisciplineRule,
            {
                "repro/runtime/worker.py": """
                    import sys

                    def run(batch):
                        print("starting", len(batch))
                        sys.stderr.write("halfway\\n")
                        sys.stdout.write("done\\n")
                        return batch
                    """
            },
        )
        assert pairs(findings) == [
            ("QA007", 4),  # print()
            ("QA007", 5),  # sys.stderr.write
            ("QA007", 6),  # sys.stdout.write
        ]

    def test_main_modules_may_print(self, findings_of):
        findings = findings_of(
            TelemetryDisciplineRule,
            {
                "repro/runtime/__main__.py": """
                    import sys

                    def main():
                        print("report")
                        sys.stderr.write("notice\\n")
                        return 0
                    """
            },
        )
        assert findings == []

    def test_aliased_stream_write_is_flagged(self, findings_of):
        findings = findings_of(
            TelemetryDisciplineRule,
            {
                "repro/signal/debug.py": """
                    from sys import stderr

                    def trace(msg):
                        stderr.write(msg)
                    """
            },
        )
        assert pairs(findings) == [("QA007", 4)]

    def test_literal_span_names_flagged(self, findings_of):
        findings = findings_of(
            TelemetryDisciplineRule,
            {
                "repro/runtime/instrumented.py": """
                    def run(tracer, signal, recording):
                        with tracer.span("stage.bandpass"):
                            pass
                        signal.emit("changed")
                    """
            },
        )
        # Only .span() takes a registered name; .emit is no telemetry call.
        assert pairs(findings) == [("QA007", 2)]

    def test_registered_constants_are_clean(self, findings_of):
        findings = findings_of(
            TelemetryDisciplineRule,
            {
                "repro/runtime/instrumented.py": """
                    from repro.obs import names

                    def run(tracer, recording):
                        with tracer.span(names.SPAN_STAGE_BANDPASS):
                            pass
                    """
            },
        )
        assert findings == []

    def test_literal_names_flagged_even_in_main_modules(self, findings_of):
        findings = findings_of(
            TelemetryDisciplineRule,
            {
                "repro/obs/__main__.py": """
                    def main(tracer):
                        with tracer.span("cli.render"):
                            return 0
                    """
            },
        )
        assert pairs(findings) == [("QA007", 2)]

    def test_unrelated_calls_stay_silent(self, findings_of):
        findings = findings_of(
            TelemetryDisciplineRule,
            {
                "repro/signal/clean.py": """
                    def spans(match, fmt):
                        start, end = match.span(0)
                        text = fmt.format("value")
                        return start, end, text
                    """
            },
        )
        assert findings == []

    def test_serve_library_modules_follow_the_same_discipline(
        self, findings_of
    ):
        # repro.serve records through repro.obs and the span registry
        # like every other library package: printing request state or
        # inventing inline span names lints the same way.
        findings = findings_of(
            TelemetryDisciplineRule,
            {
                "repro/serve/chatty.py": """
                    def admit(tracer, request):
                        print("admitted", request)
                        with tracer.span("serve.admission"):
                            return True
                    """
            },
        )
        assert pairs(findings) == [
            ("QA007", 2),  # print() in a serve library module
            ("QA007", 3),  # inline span-name literal
        ]

    def test_serve_main_module_may_print_results(self, findings_of):
        findings = findings_of(
            TelemetryDisciplineRule,
            {
                "repro/serve/__main__.py": """
                    import json

                    def emit_response(response):
                        print(json.dumps(response))
                    """
            },
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Coverage of the repro.kernels package by existing rules
# ---------------------------------------------------------------------------


class TestKernelBackendsCoverage:
    """repro/kernels/ modules lint under the same science rules."""

    def test_determinism_rule_covers_backends(self, findings_of):
        findings = findings_of(
            DeterminismRule,
            {
                "repro/kernels/bad_clock.py": """
                    import time

                    def pick_candidate():
                        return time.time()
                    """
            },
        )
        assert pairs(findings) == [("QA001", 4)]

    def test_pool_safety_rule_covers_backends(self, findings_of):
        findings = findings_of(
            PoolSafetyRule,
            {
                "repro/kernels/bad_dispatch.py": """
                    from concurrent.futures import ProcessPoolExecutor

                    def warm_all(ops):
                        with ProcessPoolExecutor() as pool:
                            pool.map(lambda op: op(), ops)
                    """
            },
        )
        assert pairs(findings) == [("QA003", 5)]

    def test_unit_discipline_rule_covers_backends(self, findings_of):
        findings = findings_of(
            UnitDisciplineRule,
            {
                "repro/kernels/bad_rate.py": """
                    def default_plan_shape():
                        rate = 384_000
                        return rate
                    """
            },
        )
        assert pairs(findings) == [("QA004", 2)]
