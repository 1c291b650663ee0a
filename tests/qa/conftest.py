"""Fixture scaffolding for the QA engine tests.

Rule tests need source trees with *known* violations at *known* lines.
``make_project`` writes a dict of ``relpath -> source`` files under a
temp directory and scans it into a :class:`repro.qa.Project`, so each
test declares its fixture module inline (keeping the expected line
numbers visible next to the assertions).
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Callable

import pytest

from repro.qa import Project


@pytest.fixture
def make_project(tmp_path) -> Callable[[dict[str, str]], Project]:
    """Factory: write ``{relpath: source}`` files under ``name`` and scan them."""

    def _make(files: dict[str, str], name: str = "fixture_src") -> Project:
        root = tmp_path / name
        for relpath, source in files.items():
            path = root / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            # lstrip so triple-quoted fixture sources start at line 1,
            # keeping expected line numbers readable in the tests.
            path.write_text(textwrap.dedent(source).lstrip("\n"), encoding="utf-8")
        # Package __init__ files so dotted names resolve like the real tree.
        for directory in {p.parent for p in root.rglob("*.py")}:
            current = directory
            while current != root:
                init = current / "__init__.py"
                if not init.exists():
                    init.write_text("", encoding="utf-8")
                current = current.parent
        return Project.scan(root)

    return _make


@pytest.fixture
def findings_of(make_project):
    """Factory: lint fixture files with one rule class, return findings."""

    def _run(rule_cls, files: dict[str, str]):
        from repro.qa import QAEngine

        project = make_project(files)
        engine = QAEngine(rules=[rule_cls()])
        return engine.collect(project)

    return _run


@pytest.fixture
def repo_src_root() -> Path:
    """The real repository's ``src`` directory."""
    return Path(__file__).resolve().parents[2] / "src"
