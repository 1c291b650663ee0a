"""QA010 fixtures: two-way diff between obs.names registries and emissions."""

from __future__ import annotations

from repro.qa.rules.qa010_telemetry_registry import TelemetryRegistryRule

# A minimal names module fixture trees opt into; line numbers matter for
# the declared-but-never-emitted anchor assertions.
NAMES_MODULE = """
METRIC_OK = "work.ok"
METRIC_DEAD = "work.dead"
SPAN_STEP = "step"
REJECTIONS = {"full": "work.rejected.full"}

CANONICAL_COUNTERS = frozenset({METRIC_OK, METRIC_DEAD, *REJECTIONS.values()})
SPAN_NAMES = frozenset({SPAN_STEP})
CANONICAL_HISTOGRAMS = frozenset()
"""


def _qa010(findings):
    return [f for f in findings if f.rule == "QA010"]


def test_undeclared_emission_flagged_at_site(findings_of):
    findings = _qa010(
        findings_of(
            TelemetryRegistryRule,
            {
                "repro/obs/names.py": NAMES_MODULE,
                "repro/app/work.py": """
                    from ..obs import names as obs_names

                    def run(metrics, tracer):
                        metrics.increment(obs_names.METRIC_OK)
                        metrics.increment("work.typo")
                        with tracer.span(obs_names.SPAN_STEP):
                            return 1
                    """,
            },
        )
    )
    undeclared = [f for f in findings if "work.typo" in f.message]
    assert len(undeclared) == 1
    assert undeclared[0].path == "repro/app/work.py"
    assert undeclared[0].line == 5


def test_declared_but_never_emitted_flagged_in_names_module(findings_of):
    findings = _qa010(
        findings_of(
            TelemetryRegistryRule,
            {
                "repro/obs/names.py": NAMES_MODULE,
                "repro/app/work.py": """
                    from ..obs import names as obs_names

                    def run(metrics, tracer):
                        metrics.increment(obs_names.METRIC_OK)
                        with tracer.span(obs_names.SPAN_STEP):
                            return 1
                    """,
            },
        )
    )
    # METRIC_DEAD and the rejection-table value are declared, unemitted.
    dead = [f for f in findings if "work.dead" in f.message]
    assert len(dead) == 1
    assert dead[0].path == "repro/obs/names.py"
    assert dead[0].line == 2  # anchored at the constant's definition
    assert any("work.rejected.full" in f.message for f in findings)


def test_registry_subscript_marks_all_values_emitted(findings_of):
    findings = _qa010(
        findings_of(
            TelemetryRegistryRule,
            {
                "repro/obs/names.py": NAMES_MODULE,
                "repro/app/work.py": """
                    from ..obs import names as obs_names

                    def run(metrics, tracer, signal, reason):
                        metrics.increment(obs_names.METRIC_OK)
                        metrics.increment(obs_names.METRIC_DEAD)
                        metrics.increment(obs_names.REJECTIONS[reason])
                        signal.emit("not.a.telemetry.name")
                        with tracer.span(obs_names.SPAN_STEP):
                            return 1
                    """,
            },
        )
    )
    # .emit is no telemetry call, so its argument is no undeclared name.
    assert findings == []


def test_literal_spelling_of_registered_name_counts_as_emission(findings_of):
    findings = _qa010(
        findings_of(
            TelemetryRegistryRule,
            {
                "repro/obs/names.py": NAMES_MODULE,
                "repro/app/work.py": """
                    from ..obs import names as obs_names

                    def run(metrics, tracer, reason):
                        metrics.increment("work.ok")
                        metrics.increment("work.dead")
                        metrics.increment(obs_names.REJECTIONS[reason])
                        with tracer.span("step"):
                            return 1
                    """,
            },
        )
    )
    # Matching is by value: literals of declared names are emissions,
    # not violations (QA007 owns the literal-vs-constant style rule).
    assert findings == []


def test_rule_inert_without_names_module(findings_of):
    findings = _qa010(
        findings_of(
            TelemetryRegistryRule,
            {
                "repro/app/work.py": """
                    def run(metrics):
                        metrics.increment("anything.goes")
                    """,
            },
        )
    )
    assert findings == []


def test_cross_file_emission_satisfies_registry(findings_of):
    findings = _qa010(
        findings_of(
            TelemetryRegistryRule,
            {
                "repro/obs/names.py": """
                    METRIC_ONLY = "deep.metric"
                    CANONICAL_COUNTERS = frozenset({METRIC_ONLY})
                    SPAN_NAMES = frozenset()
                    CANONICAL_HISTOGRAMS = frozenset()
                    """,
                "repro/deep/leaf.py": """
                    from ..obs import names as obs_names

                    def emit(metrics):
                        metrics.increment(obs_names.METRIC_ONLY)
                    """,
            },
        )
    )
    assert findings == []


# Health-series registries joined the declared universe with the
# fleet-health tier: HEALTH_COUNTER_SERIES names are counters,
# HEALTH_DISTRIBUTION_SERIES names are histograms, and both directions
# of the diff must cover them.
HEALTH_NAMES_MODULE = """
HEALTH_REQUESTS = "health.requests"
HEALTH_DEAD = "health.dead_series"
HEALTH_REQUEST_MS = "health.request_ms"

CANONICAL_COUNTERS = frozenset()
SPAN_NAMES = frozenset()
CANONICAL_HISTOGRAMS = frozenset()
HEALTH_COUNTER_SERIES = frozenset({HEALTH_REQUESTS, HEALTH_DEAD})
HEALTH_DISTRIBUTION_SERIES = frozenset({HEALTH_REQUEST_MS})
"""


def test_health_series_count_as_declared_counters_and_histograms(findings_of):
    findings = _qa010(
        findings_of(
            TelemetryRegistryRule,
            {
                "repro/obs/names.py": HEALTH_NAMES_MODULE,
                "repro/app/hooks.py": """
                    from ..obs import names as obs_names

                    def record(health):
                        health.increment(obs_names.HEALTH_REQUESTS)
                        health.increment(obs_names.HEALTH_DEAD)
                        health.observe(obs_names.HEALTH_REQUEST_MS, 2.0)
                    """,
            },
        )
    )
    assert findings == []


def test_undeclared_health_emission_is_flagged(findings_of):
    findings = _qa010(
        findings_of(
            TelemetryRegistryRule,
            {
                "repro/obs/names.py": HEALTH_NAMES_MODULE,
                "repro/app/hooks.py": """
                    from ..obs import names as obs_names

                    def record(health):
                        health.increment(obs_names.HEALTH_REQUESTS)
                        health.increment(obs_names.HEALTH_DEAD)
                        health.observe(obs_names.HEALTH_REQUEST_MS, 2.0)
                        health.increment("health.surprise")
                    """,
            },
        )
    )
    undeclared = [f for f in findings if "health.surprise" in f.message]
    assert len(undeclared) == 1
    assert undeclared[0].path == "repro/app/hooks.py"


def test_dead_health_series_is_flagged_in_names_module(findings_of):
    findings = _qa010(
        findings_of(
            TelemetryRegistryRule,
            {
                "repro/obs/names.py": HEALTH_NAMES_MODULE,
                "repro/app/hooks.py": """
                    from ..obs import names as obs_names

                    def record(health):
                        health.increment(obs_names.HEALTH_REQUESTS)
                        health.observe(obs_names.HEALTH_REQUEST_MS, 2.0)
                    """,
            },
        )
    )
    dead = [f for f in findings if "health.dead_series" in f.message]
    assert len(dead) == 1
    assert dead[0].path == "repro/obs/names.py"
