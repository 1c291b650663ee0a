"""Whole-program analysis against the real source tree.

Fixture tests pin rule semantics; these tests pin the *repo*: the tree
must lint clean under ``--strict``, seeded violations must be caught by
the correct rule at the mutated site, and the static view QA010 builds
of the telemetry registries must agree with the runtime export.
"""

from __future__ import annotations

import shutil

import pytest

from repro.obs import names as obs_names
from repro.qa import Project, QAEngine
from repro.qa.engine import all_rules
from repro.qa.graph import summarize_module
from repro.qa.rules.qa008_async_blocking import AsyncBlockingRule
from repro.qa.rules.qa010_telemetry_registry import TelemetryRegistryRule


@pytest.fixture
def mutable_src(repo_src_root, tmp_path):
    """A scratch copy of ``src/`` the test can seed violations into."""
    target = tmp_path / "src"
    shutil.copytree(
        repo_src_root, target, ignore=shutil.ignore_patterns("__pycache__")
    )
    return target


def _line_of(path, needle: str) -> int:
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


def test_repo_is_strict_clean(repo_src_root):
    report = QAEngine(rules=all_rules()).run(Project.scan(repo_src_root))
    assert report.findings == [], [f.render() for f in report.findings]


def test_seeded_sleep_in_serve_callee_caught_by_qa008(mutable_src):
    # ScreeningService._enqueue is a synchronous callee of the async
    # ScreeningService.submit; a blocking sleep seeded there must be
    # flagged even though _enqueue itself is synchronous.
    service = mutable_src / "repro" / "serve" / "service.py"
    source = service.read_text()
    anchor = "        lane = self._lanes.get(tenant)"
    assert source.count(anchor) == 1, "anchor line is no longer unique"
    # Indented like the anchor, or the mutant does not parse and QA008
    # has nothing to report.
    source = source.replace(anchor, "        time.sleep(0.001)\n" + anchor, 1)
    # The import must land *after* the __future__ import to keep the
    # module parseable.
    future = "from __future__ import annotations\n"
    assert future in source
    service.write_text(source.replace(future, future + "import time\n", 1))

    findings = QAEngine(rules=[AsyncBlockingRule()]).collect(
        Project.scan(mutable_src)
    )
    qa008 = [f for f in findings if f.rule == "QA008"]
    assert qa008, "seeded blocking sleep was not detected"
    sites = {(f.path, f.line) for f in qa008}
    assert (
        "repro/serve/service.py",
        _line_of(service, "time.sleep(0.001)"),
    ) in sites
    assert any("time.sleep" in f.message for f in qa008)
    # The finding explains *how* the event loop reaches the sink.
    assert any("_enqueue" in f.message for f in qa008)


def test_seeded_unregistered_metric_caught_by_qa010(mutable_src):
    executor = mutable_src / "repro" / "runtime" / "executor.py"
    mutant = (
        "\n\ndef _mutant_emit(metrics):\n"
        '    metrics.increment("earsonar.mutant.unregistered")\n'
    )
    executor.write_text(executor.read_text() + mutant)

    findings = QAEngine(rules=[TelemetryRegistryRule()]).collect(
        Project.scan(mutable_src)
    )
    qa010 = [
        f for f in findings if "earsonar.mutant.unregistered" in f.message
    ]
    assert len(qa010) == 1
    (finding,) = qa010
    assert finding.rule == "QA010"
    assert finding.path == "repro/runtime/executor.py"
    assert finding.line == _line_of(executor, "earsonar.mutant.unregistered")


def test_static_registry_view_matches_runtime_registry(repo_src_root):
    # QA010 and QA012 read the registry sets *statically* (frozenset
    # displays, constants, starred names); names.registry() evaluates
    # them at runtime. If a registry refactor outgrows the static
    # evaluator the two views diverge and this test fails loudly,
    # instead of the lint silently under-counting declared names.
    project = Project.scan(repo_src_root)
    summary = summarize_module(project.get("repro.obs.names"))
    runtime = obs_names.registry()
    static = {
        key: tuple(sorted(set(summary.registry_sets[key])))
        for key in runtime
    }
    assert static == runtime
