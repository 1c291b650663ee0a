"""Engine-level tests: registry, pragmas, and the CLI."""

from __future__ import annotations

import json

from repro.qa import QAEngine, all_rules, parse_pragmas
from repro.qa.__main__ import main as qa_main
from repro.qa.rules import UnitDisciplineRule

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
# CLI
# ---------------------------------------------------------------------------


def cli(make_project, files, *extra):
    project = make_project(files)
    return qa_main(["--root", str(project.root), *extra])


def test_cli_exits_nonzero_on_findings(make_project, capsys):
    code = cli(make_project, BAD_SIGNAL)
    assert code == 1
    out = capsys.readouterr().out
    assert "QA001" in out and "noisy.py:4" in out


def test_cli_json_format(make_project, capsys):
    code = cli(make_project, BAD_SIGNAL, "--format", "json")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "QA001"
    assert payload["findings"][0]["line"] == 4


def test_cli_rules_subset_and_unknown_rule(make_project, capsys):
    code = cli(make_project, BAD_SIGNAL, "--rules", "QA004")
    assert code == 0  # the QA001 violation is not checked
    capsys.readouterr()
    code = cli(make_project, BAD_SIGNAL, "--rules", "QA999")
    assert code == 2


def test_cli_strict_fails_on_warnings(make_project):
    files = {
        "repro/learning/api.py": """
            __all__ = ["fit"]

            def fit(x: int) -> None:
                pass
            """
    }
    code = cli(make_project, files)
    assert code == 0  # warnings only
    code = cli(make_project, files, "--strict")
    assert code == 1


def _tree_snapshot(root):
    return {
        path.relative_to(root): path.read_bytes() if path.is_file() else None
        for path in root.rglob("*")
    }


def test_cli_writes_no_files(tmp_path, make_project, monkeypatch, capsys):
    """A run only reads its source root: no cache, no baseline, any format."""
    project = make_project(BAD_SIGNAL)
    before = _tree_snapshot(project.root)
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    for fmt in ("text", "json", "sarif"):
        assert qa_main(["--root", str(project.root), "--format", fmt]) == 1
        assert capsys.readouterr().out
        assert list(workdir.iterdir()) == [], fmt
    assert _tree_snapshot(project.root) == before
