"""Engine-level tests: pragmas, baseline, CLI, and repo cleanliness."""

from __future__ import annotations

import json

import pytest

from repro.qa import (
    Baseline,
    Finding,
    Project,
    QAEngine,
    Severity,
    all_rules,
    apply_baseline,
    parse_pragmas,
)
from repro.qa.__main__ import main as qa_main
from repro.qa.rules import DeterminismRule, UnitDisciplineRule

BAD_SIGNAL = {
    "repro/signal/noisy.py": """
        import numpy as np

        def jitter():
            return np.random.rand(3)
        """
}


# ---------------------------------------------------------------------------
# Registry and engine basics
# ---------------------------------------------------------------------------


def test_all_rules_registered():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == [
        "QA001",
        "QA002",
        "QA003",
        "QA004",
        "QA005",
        "QA006",
        "QA007",
        "QA008",
        "QA009",
        "QA010",
        "QA012",
    ]


def test_engine_runs_all_rules_and_sorts_findings(make_project):
    project = make_project(
        {
            "repro/signal/mixed.py": """
                import numpy as np

                def f():
                    fs = 48_000.0
                    return np.random.rand(3), fs
                """
        }
    )
    report = QAEngine().run(project)
    assert [(f.rule, f.line) for f in report.findings] == [
        ("QA004", 4),
        ("QA001", 5),
    ]


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------


def test_pragma_parsing_forms():
    index = parse_pragmas(
        "x = 1  # qa: ignore[QA001]\n"
        "y = 2  # qa: ignore[QA001, QA004]\n"
        "z = 3  # qa: ignore\n"
        "w = 4\n"
    )
    assert index.suppresses(1, "QA001") and not index.suppresses(1, "QA004")
    assert index.suppresses(2, "QA004") and index.suppresses(2, "QA001")
    assert index.suppresses(3, "QA999")
    assert not index.suppresses(4, "QA001")


def test_inline_pragma_suppresses_finding(make_project):
    project = make_project(
        {
            "repro/signal/ok.py": """
                def f():
                    return 48_000.0  # qa: ignore[QA004]
                """
        }
    )
    report = QAEngine(rules=[UnitDisciplineRule()]).run(project)
    assert report.findings == []
    assert [f.rule for f in report.pragma_suppressed] == ["QA004"]


def test_pragma_for_other_rule_does_not_suppress(make_project):
    project = make_project(
        {
            "repro/signal/ok.py": """
                def f():
                    return 48_000.0  # qa: ignore[QA001]
                """
        }
    )
    report = QAEngine(rules=[UnitDisciplineRule()]).run(project)
    assert [f.rule for f in report.findings] == ["QA004"]


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def _finding(path="repro/a.py", line=3, rule="QA001", message="m") -> Finding:
    return Finding(
        path=path, line=line, rule=rule, severity=Severity.ERROR, message=message
    )


def test_baseline_budget_is_per_occurrence():
    accepted = Baseline.from_findings([_finding(line=3)])
    result = apply_baseline([_finding(line=30), _finding(line=40)], accepted)
    # One budget entry: the first (by line) is suppressed, the second is new.
    assert [f.line for f in result.suppressed] == [30]
    assert [f.line for f in result.active] == [40]
    assert result.stale_keys == []


def test_baseline_survives_line_drift():
    accepted = Baseline.from_findings([_finding(line=3)])
    result = apply_baseline([_finding(line=300)], accepted)
    assert result.active == [] and len(result.suppressed) == 1


def test_stale_baseline_entries_are_reported():
    accepted = Baseline.from_findings([_finding(message="gone")])
    result = apply_baseline([], accepted)
    assert result.stale_keys == ["repro/a.py::QA001::gone"]


def test_baseline_roundtrip_on_disk(tmp_path):
    path = tmp_path / "qa_baseline.json"
    Baseline.from_findings([_finding(), _finding()]).save(path)
    loaded = Baseline.load(path)
    assert loaded.entries == {"repro/a.py::QA001::m": 2}
    assert len(loaded) == 2


def test_baseline_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "qa_baseline.json"
    path.write_text(json.dumps({"version": 99}), encoding="utf-8")
    with pytest.raises(ValueError):
        Baseline.load(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def cli(tmp_path, make_project, files, *extra):
    project = make_project(files)
    baseline = tmp_path / "qa_baseline.json"
    return qa_main(
        ["--root", str(project.root), "--baseline", str(baseline), *extra]
    ), baseline


def test_cli_exits_nonzero_on_findings(tmp_path, make_project, capsys):
    code, _ = cli(tmp_path, make_project, BAD_SIGNAL)
    assert code == 1
    out = capsys.readouterr().out
    assert "QA001" in out and "noisy.py:4" in out


def test_cli_write_baseline_then_clean_run(tmp_path, make_project, capsys):
    """--write-baseline -> the same tree lints clean, even under --strict."""
    code, baseline = cli(tmp_path, make_project, BAD_SIGNAL, "--write-baseline")
    assert code == 0 and baseline.exists()
    capsys.readouterr()

    project_root = baseline.parent / "fixture_src"
    code = qa_main(
        ["--root", str(project_root), "--baseline", str(baseline), "--strict"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_new_finding_fails_despite_baseline(tmp_path, make_project, capsys):
    code, baseline = cli(tmp_path, make_project, BAD_SIGNAL, "--write-baseline")
    assert code == 0
    root = baseline.parent / "fixture_src"
    bad = root / "repro/signal/noisy.py"
    bad.write_text(
        bad.read_text(encoding="utf-8")
        + "\n\ndef extra():\n    import time\n    return time.time()\n",
        encoding="utf-8",
    )
    code = qa_main(["--root", str(root), "--baseline", str(baseline)])
    assert code == 1
    out = capsys.readouterr().out
    assert "time.time" in out and "numpy" not in out  # old finding stays baselined


def test_cli_json_format(tmp_path, make_project, capsys):
    code, _ = cli(tmp_path, make_project, BAD_SIGNAL, "--format", "json")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "QA001"
    assert payload["findings"][0]["line"] == 4


def test_cli_rules_subset_and_unknown_rule(tmp_path, make_project, capsys):
    code, _ = cli(tmp_path, make_project, BAD_SIGNAL, "--rules", "QA004")
    assert code == 0  # the QA001 violation is not checked
    capsys.readouterr()
    code, _ = cli(tmp_path, make_project, BAD_SIGNAL, "--rules", "QA999")
    assert code == 2


def test_cli_strict_fails_on_warnings(tmp_path, make_project):
    files = {
        "repro/learning/api.py": """
            __all__ = ["fit"]

            def fit(x: int) -> None:
                pass
            """
    }
    code, _ = cli(tmp_path, make_project, files)
    assert code == 0  # warnings only
    code, _ = cli(tmp_path, make_project, files, "--strict")
    assert code == 1


# ---------------------------------------------------------------------------
# The repository itself must lint clean (acceptance criterion)
# ---------------------------------------------------------------------------


def test_repo_lints_clean_in_strict_mode(repo_src_root):
    report = QAEngine().run(Project.scan(repo_src_root))
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"repo has new QA findings:\n{rendered}"
