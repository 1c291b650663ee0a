"""The public surface of ``src/repro`` holds only names something runs.

A static census over the repository's AST: every public top-level name
defined in a module under ``src/repro``, and every public method,
property, classmethod and staticmethod of a top-level class there, must
be reached from a caller, or it is flagged.  Callers are the modules
under ``src/``, ``benchmarks/``, ``examples/`` and ``e2ebench/``; the
tests are not callers, so a helper only the tests use is dead code with
a test.

What counts as a reference, matched by bare name:

* a ``Name`` or an ``Attribute``'s attribute name;
* a name imported by ``from … import`` outside a package ``__init__``
  (an ``__init__`` re-export is not a use);
* a string constant that is an identifier (``getattr``-style lookups),
  except the strings of an ``__all__`` list.

A reference only counts from live code.  Module-level statements that
define nothing are live, and so is every definition in a caller outside
``src/``; a top-level definition in ``src/`` is live once a live
reference names it, and only then do the references inside it count.
A class member is a definition of its own, live once a live reference
names it; a class's dunders (``__init__``, ``__post_init__``, ...) are
part of the class and live with it.
The pass repeats until no new name comes alive, so a helper called only
by a dead helper is dead too, and a definition's references to itself
never keep it alive.

Matching by bare name is deliberate: a collision can only hide a dead
name (a live ``foo`` elsewhere keeps every ``foo`` alive); it never
flags a live one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import pytest

REPO = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples", "e2ebench")

#: Live by fiat, each for a reason no caller shows.  Nothing else is
#: exempt: this is not a baseline of accepted dead code.
EXEMPT: Dict[str, str] = {
    "repro.smoke": "the package's documented quick start, run by users",
    "repro.signal.parity.parity_decompose": (
        "the per-event parity oracle that parity_energies is built on"
    ),
    "repro.signal.parity.parity_energies": (
        "oracle of the fast energy ratio in segment_eardrum_echoes"
    ),
    "repro.obs.names.registry": (
        "the runtime view of the telemetry registry QA010 checks statically"
    ),
}

#: Serial oracles of batched kernels stay, whoever calls them (top-level
#: functions only; a method is never an oracle).
ORACLE_SUFFIX = "_reference"

#: QA rules reach the engine through this decorator, not by name.
RULE_DECORATOR = "register"


@dataclass
class _Definition:
    """One top-level definition or class member and the references inside it."""

    qualname: str
    name: str
    public: bool
    exempt: bool
    refs: Set[str] = field(default_factory=set)


@dataclass
class Census:
    """Definitions and live references gathered from one tree."""

    definitions: List[_Definition] = field(default_factory=list)
    roots: Set[str] = field(default_factory=set)

    def dead(self) -> List[str]:
        """Qualified names of public definitions no live code reaches."""
        by_name: Dict[str, List[_Definition]] = {}
        for definition in self.definitions:
            by_name.setdefault(definition.name, []).append(definition)
        live: Set[int] = set()
        frontier = set(self.roots)
        for definition in self.definitions:
            if definition.exempt:
                live.add(id(definition))
                frontier |= definition.refs
        seen: Set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for definition in by_name.get(name, ()):
                if id(definition) not in live:
                    live.add(id(definition))
                    frontier |= definition.refs - seen
        return sorted(
            d.qualname
            for d in self.definitions
            if d.public and id(d) not in live
        )


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_all_target(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _references(
    node: ast.AST, *, in_init: bool, skip: Sequence[ast.AST] = ()
) -> Set[str]:
    """Every bare name ``node`` refers to, per the module docstring,
    outside the subtrees in ``skip``."""
    refs: Set[str] = set()
    skipped = {id(n) for n in skip}
    stack = [node]
    while stack:
        child = stack.pop()
        if id(child) in skipped:
            continue
        stack.extend(ast.iter_child_nodes(child))
        if isinstance(child, ast.Name):
            refs.add(child.id)
        elif isinstance(child, ast.Attribute):
            refs.add(child.attr)
        elif isinstance(child, ast.ImportFrom) and not in_init:
            refs.update(alias.name for alias in child.names)
        elif (
            isinstance(child, ast.Constant)
            and isinstance(child.value, str)
            and child.value.isidentifier()
        ):
            refs.add(child.value)
    return refs


def _defined_names(stmt: ast.stmt) -> List[str]:
    """Names a top-level statement defines, ``[]`` for anything else."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _members(stmt: ast.stmt) -> List[_Function]:
    """A top-level class's methods, properties, classmethods and
    staticmethods, dunders excepted; ``[]`` for anything else."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [
        node
        for node in stmt.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _decorated_by(stmt: ast.stmt, decorator: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == decorator
        for node in getattr(stmt, "decorator_list", ())
    )


def _python_files(directory: Path) -> List[Path]:
    return sorted(
        p for p in directory.rglob("*.py") if "__pycache__" not in p.parts
    )


def census(
    repo: Path,
    *,
    caller_dirs: Tuple[str, ...] = CALLER_DIRS,
    exempt: Optional[Dict[str, str]] = None,
) -> Census:
    """Build the census of ``repo``: subjects are the modules under ``src/``."""
    subject_root = repo / "src"
    exempt = EXEMPT if exempt is None else exempt
    result = Census()
    for directory in caller_dirs:
        for path in _python_files(repo / directory):
            tree = ast.parse(path.read_text(), filename=str(path))
            in_init = path.name == "__init__.py"
            if subject_root not in path.parents:
                result.roots |= _references(tree, in_init=in_init)
                continue
            module = _module_name(path, subject_root)
            for stmt in tree.body:
                if _is_all_target(stmt):
                    continue
                names = _defined_names(stmt)
                members = _members(stmt)
                refs = _references(stmt, in_init=in_init, skip=members)
                if not names:
                    result.roots |= refs
                    continue
                for name in names:
                    qualname = f"{module}.{name}"
                    result.definitions.append(
                        _Definition(
                            qualname=qualname,
                            name=name,
                            public=not name.startswith("_"),
                            exempt=(
                                qualname in exempt
                                or name.endswith(ORACLE_SUFFIX)
                                or _decorated_by(stmt, RULE_DECORATOR)
                            ),
                            refs=refs,
                        )
                    )
                    for member in members:
                        member_qualname = f"{qualname}.{member.name}"
                        result.definitions.append(
                            _Definition(
                                qualname=member_qualname,
                                name=member.name,
                                public=not member.name.startswith("_"),
                                exempt=member_qualname in exempt,
                                refs=_references(member, in_init=in_init),
                            )
                        )
    return result


@pytest.fixture(scope="module")
def repo_census() -> Census:
    return census(REPO)


def test_every_public_name_has_a_caller(repo_census):
    dead = repo_census.dead()
    assert not dead, (
        f"{len(dead)} public name(s) in src/ that no module under "
        f"{', '.join(CALLER_DIRS)} reaches; delete them with their tests "
        "or give them a caller:\n  " + "\n  ".join(dead)
    )


def test_every_exemption_names_a_definition(repo_census):
    defined = {d.qualname for d in repo_census.definitions}
    assert sorted(set(EXEMPT) - defined) == []


def _write(root: Path, relative: str, source: str) -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)


@pytest.fixture
def toy_repo(tmp_path):
    """A two-module package and one example that drives part of it."""
    _write(
        tmp_path,
        "src/pkg/__init__.py",
        "from .mod import used, chained_dead, kept_oracle_reference\n"
        "from .mod import only_in_all, kept\n"
        "__all__ = ['used', 'only_in_all', 'by_string']\n",
    )
    _write(
        tmp_path,
        "src/pkg/mod.py",
        "def helper():\n    return 1\n\n"
        "def used():\n    return helper()\n\n"
        "def chained_dead():\n    return dead_leaf()\n\n"
        "def dead_leaf():\n    return dead_leaf()\n\n"
        "def only_in_all():\n    pass\n\n"
        "def by_string():\n    pass\n\n"
        "def kept():\n    pass\n\n"
        "def kept_oracle_reference():\n    pass\n\n"
        "def _private():\n    return private_only()\n\n"
        "def private_only():\n    pass\n\n"
        "TABLE = {'key': 'by_string'}\n",
    )
    _write(
        tmp_path,
        "src/pkg/user.py",
        "from pkg.mod import TABLE\n",
    )
    _write(tmp_path, "examples/demo.py", "import pkg\npkg.used()\n")
    _write(tmp_path, "tests/test_pkg.py", "from pkg import only_in_all\n")
    return tmp_path


def test_census_follows_callers_transitively(toy_repo):
    result = census(
        toy_repo,
        caller_dirs=("src", "examples"),
        exempt={"pkg.mod.kept": "a reason"},
    )
    assert result.dead() == [
        "pkg.mod.chained_dead",
        "pkg.mod.dead_leaf",
        "pkg.mod.only_in_all",
        "pkg.mod.private_only",
    ]


def test_census_flags_nothing_a_collision_keeps_alive(toy_repo):
    _write(toy_repo, "examples/other.py", "chained_dead = 1\nprint(chained_dead)\n")
    result = census(toy_repo, caller_dirs=("src", "examples"), exempt={})
    dead = result.dead()
    assert "pkg.mod.chained_dead" not in dead
    assert "pkg.mod.dead_leaf" not in dead
    assert "pkg.mod.kept" in dead


def test_census_counts_class_members(tmp_path):
    _write(tmp_path, "src/pkg/__init__.py", "from .shapes import Widget, Unused\n")
    _write(
        tmp_path,
        "src/pkg/shapes.py",
        "def built_in_init():\n    return 1\n\n"
        "def only_a_dead_method_calls():\n    return 2\n\n"
        "def only_a_dead_class_calls():\n    return 3\n\n"
        "class Widget:\n"
        "    def __init__(self):\n        self.n = built_in_init()\n\n"
        "    def spin(self):\n        return self.n\n\n"
        "    def dead_method(self):\n        return only_a_dead_method_calls()\n\n"
        "    @property\n    def size(self):\n        return self.n\n\n"
        "    @property\n    def dead_size(self):\n        return 0\n\n"
        "    def _private(self):\n        return 4\n\n"
        "    def method_reference(self):\n        return 5\n\n"
        "class Unused:\n"
        "    def __init__(self):\n        self.n = only_a_dead_class_calls()\n",
    )
    _write(
        tmp_path,
        "examples/demo.py",
        "from pkg import Widget\nwidget = Widget()\nwidget.spin()\nprint(widget.size)\n",
    )
    result = census(tmp_path, caller_dirs=("src", "examples"), exempt={})
    # A dunder lives with its class; the oracle suffix exempts no method.
    assert result.dead() == [
        "pkg.shapes.Unused",
        "pkg.shapes.Widget.dead_method",
        "pkg.shapes.Widget.dead_size",
        "pkg.shapes.Widget.method_reference",
        "pkg.shapes.only_a_dead_class_calls",
        "pkg.shapes.only_a_dead_method_calls",
    ]
