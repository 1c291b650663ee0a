"""Output format contracts: SARIF 2.1.0 structure and JSON stability."""

from __future__ import annotations

import json

from repro.qa import QAEngine
from repro.qa.__main__ import _render_json, main
from repro.qa.engine import all_rules
from repro.qa.rules.qa001_determinism import DeterminismRule
from repro.qa.sarif import render_sarif

VIOLATING_TREE = {
    "repro/signal/mix.py": """
        import numpy as np

        def f():
            return np.random.rand(3)
        """,
}


def _report(make_project, files=VIOLATING_TREE):
    project = make_project(files)
    return QAEngine(rules=[DeterminismRule()]).run(project)


def test_sarif_document_structure(make_project):
    report = _report(make_project)
    doc = json.loads(render_sarif(report, [DeterminismRule()], uri_prefix="src"))

    assert doc["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in doc["$schema"]
    (run,) = doc["runs"]

    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.qa"
    (descriptor,) = driver["rules"]
    assert descriptor["id"] == "QA001"
    assert descriptor["defaultConfiguration"]["level"] == "error"
    assert descriptor["shortDescription"]["text"]

    (result,) = run["results"]
    assert result["ruleId"] == "QA001"
    assert result["level"] == "error"
    assert result["message"]["text"]
    location = result["locations"][0]["physicalLocation"]
    # Paths are rebased onto the repo checkout via uri_prefix.
    assert location["artifactLocation"]["uri"] == "src/repro/signal/mix.py"
    assert location["region"]["startLine"] == 4


def test_sarif_without_prefix_keeps_root_relative_paths(make_project):
    report = _report(make_project)
    doc = json.loads(render_sarif(report, [DeterminismRule()]))
    uri = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
        "artifactLocation"
    ]["uri"]
    assert uri == "repro/signal/mix.py"


def test_sarif_lists_every_registered_rule(make_project):
    report = _report(make_project)
    rules = all_rules()
    doc = json.loads(render_sarif(report, rules))
    listed = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert listed == [r.rule_id for r in rules]
    assert "QA008" in listed and "QA010" in listed


def test_json_format_contract_is_stable(make_project):
    report = _report(make_project)
    doc = json.loads(_render_json(report))

    # The machine interface other tooling scripts against: exactly these
    # top-level keys, and per-finding dicts with exactly these fields.
    assert set(doc) == {"findings", "counts"}
    assert set(doc["counts"]) == {"errors", "warnings", "pragma_suppressed"}
    (finding,) = doc["findings"]
    assert set(finding) == {
        "rule",
        "severity",
        "path",
        "line",
        "message",
        "suggestion",
    }
    assert finding["rule"] == "QA001"
    assert finding["path"] == "repro/signal/mix.py"
    assert finding["line"] == 4


def test_cli_sarif_round_trip(make_project, tmp_path, capsys, monkeypatch):
    project = make_project(VIOLATING_TREE)
    monkeypatch.chdir(tmp_path)
    exit_code = main(
        [
            "--root",
            str(project.root),
            "--format",
            "sarif",
            "--rules",
            "QA001",
        ]
    )
    assert exit_code == 1  # the fixture violation fails the run
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"][0]["ruleId"] == "QA001"
