"""QA012 fixtures: health rollup label keys from the closed vocabulary."""

from __future__ import annotations

from repro.qa.rules.qa012_cardinality import LabelCardinalityRule

#: Minimal names module declaring the closed label-key vocabulary.
NAMES_MODULE = """
HEALTH_LABEL_KEYS = frozenset({"tenant", "device_model", "verdict"})
"""


def _qa012(findings):
    return [f for f in findings if f.rule == "QA012"]


def test_declared_keys_pass(findings_of):
    findings = _qa012(
        findings_of(
            LabelCardinalityRule,
            {
                "repro/obs/names.py": NAMES_MODULE,
                "repro/app/hooks.py": """
                    def record(health, tenant, model):
                        health.increment(
                            "health.requests",
                            labels={"tenant": tenant, "device_model": model},
                        )
                        health.observe(
                            "health.calib_offset_db",
                            1.5,
                            labels={"device_model": model},
                        )
                    """,
            },
        )
    )
    assert findings == []


def test_invented_key_is_flagged(findings_of):
    findings = _qa012(
        findings_of(
            LabelCardinalityRule,
            {
                "repro/obs/names.py": NAMES_MODULE,
                "repro/app/hooks.py": """
                    def record(health, user):
                        health.increment(
                            "health.requests",
                            labels={"user_id": user},
                        )
                    """,
            },
        )
    )
    assert len(findings) == 1
    assert "user_id" in findings[0].message
    assert findings[0].path == "repro/app/hooks.py"
    assert findings[0].line == 4


def test_computed_key_is_flagged(findings_of):
    findings = _qa012(
        findings_of(
            LabelCardinalityRule,
            {
                "repro/obs/names.py": NAMES_MODULE,
                "repro/app/hooks.py": """
                    def record(health, key, value):
                        health.increment("health.requests", labels={key: value})
                    """,
            },
        )
    )
    assert len(findings) == 1
    assert "computed label key" in findings[0].message


def test_spread_keys_are_flagged(findings_of):
    findings = _qa012(
        findings_of(
            LabelCardinalityRule,
            {
                "repro/obs/names.py": NAMES_MODULE,
                "repro/app/hooks.py": """
                    def record(health, extra):
                        health.increment(
                            "health.requests",
                            labels={"tenant": "a", **extra},
                        )
                    """,
            },
        )
    )
    assert len(findings) == 1
    assert "spread" in findings[0].message


def test_calls_without_labels_are_ignored(findings_of):
    findings = _qa012(
        findings_of(
            LabelCardinalityRule,
            {
                "repro/obs/names.py": NAMES_MODULE,
                "repro/app/hooks.py": """
                    def record(metrics):
                        metrics.increment("work.done")
                        metrics.observe("work.ms", 3.0)
                    """,
            },
        )
    )
    assert findings == []


def test_rule_inert_without_a_vocabulary(findings_of):
    findings = _qa012(
        findings_of(
            LabelCardinalityRule,
            {
                "repro/app/hooks.py": """
                    def record(health, user):
                        health.increment("x", labels={"user_id": user})
                    """,
            },
        )
    )
    assert findings == []


def test_rule_inert_when_names_module_lacks_the_set(findings_of):
    findings = _qa012(
        findings_of(
            LabelCardinalityRule,
            {
                "repro/obs/names.py": "SPAN_NAMES = frozenset()\n",
                "repro/app/hooks.py": """
                    def record(health, user):
                        health.increment("x", labels={"user_id": user})
                    """,
            },
        )
    )
    assert findings == []


def test_projects_linted_in_turn_each_read_their_own_vocabulary(make_project):
    # A project's vocabulary must never leak into the next one linted in
    # the same process.  CPython reuses the id of a freed object, so a
    # cache keyed by id(project) handed new projects a dead one's answer.
    from repro.qa import QAEngine

    hooks = """
        def record(health, user):
            health.increment("x", labels={"user_id": user})
        """
    reported = []
    for i in range(10):
        files = {"repro/app/hooks.py": hooks}
        if i % 2 == 0:
            files["repro/obs/names.py"] = NAMES_MODULE
        project = make_project(files, name=f"project_{i}")
        findings = _qa012(QAEngine(rules=[LabelCardinalityRule()]).collect(project))
        reported.append(len(findings))
        del project
    assert reported == [1, 0] * 5


def test_real_repo_hooks_are_clean(repo_src_root):
    from repro.qa import Project, QAEngine

    project = Project.scan(repo_src_root)
    engine = QAEngine(rules=[LabelCardinalityRule()])
    assert _qa012(engine.collect(project)) == []
