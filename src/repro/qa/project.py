"""Filesystem → AST model of the package under analysis.

The engine parses every Python module under one *source root* (the
directory whose children are importable top-level packages, i.e.
``src/`` in this repo) into :class:`ModuleInfo` objects, and
:class:`Project` adds the cross-module services rules need:

- dotted-name lookup (``repro.core.config``),
- static resolution of a name imported into a module back to the
  ``ClassDef`` that defines it, following relative imports and package
  ``__init__`` re-exports (required by the fingerprint-completeness
  rule, whose config tree spans five modules).

It also holds the syntax helpers both the per-file rules and the
whole-program graph layer use (:func:`attribute_chain`,
:func:`resolve_relative_import`), so neither imports the other.

Everything is computed from source text — nothing is imported — so the
linter can analyse fixture trees containing deliberate violations
without executing them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = ["ModuleInfo", "Project", "attribute_chain", "resolve_relative_import"]


def attribute_chain(node: ast.expr) -> str | None:
    """Dotted text of a ``Name``/``Attribute`` chain, else ``None``.

    ``np.random.rand`` → ``"np.random.rand"``; anything containing a
    call or subscript in the chain yields ``None``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class ModuleInfo:
    """One parsed source module.

    Attributes
    ----------
    path:
        Absolute path of the ``.py`` file.
    relpath:
        POSIX path relative to the scanned source root (what findings
        report).
    name:
        Dotted module name, e.g. ``"repro.signal.chirp"``; package
        ``__init__`` files take the package's own dotted name.
    is_package:
        True for ``__init__.py`` modules.
    source:
        Raw source text.
    tree:
        Parsed ``ast.Module``.
    """

    path: Path
    relpath: str
    name: str
    is_package: bool
    source: str
    tree: ast.Module
    _classes: dict[str, ast.ClassDef] | None = field(default=None, repr=False)

    @property
    def lines(self) -> list[str]:
        """Source split into lines (1-based indexing via ``lines[n-1]``)."""
        return self.source.splitlines()

    def top_level_classes(self) -> dict[str, ast.ClassDef]:
        """Name → ``ClassDef`` for classes defined at module top level."""
        if self._classes is None:
            self._classes = {
                node.name: node
                for node in self.tree.body
                if isinstance(node, ast.ClassDef)
            }
        return self._classes

    @property
    def is_entry_point(self) -> bool:
        """True for ``__main__`` modules, which own the process streams."""
        return self.name.rsplit(".", 1)[-1] == "__main__"

    def package_parts(self) -> list[str]:
        """Dotted parts of the package containing this module."""
        parts = self.name.split(".")
        return parts if self.is_package else parts[:-1]


def resolve_relative_import(module: ModuleInfo, node: ast.ImportFrom) -> str | None:
    """Dotted name of the module an ``ImportFrom`` pulls from.

    Absolute imports pass through; relative ones are resolved against
    the importing module's package (``from ..quality import x`` inside
    ``repro.serve.service`` → ``repro.quality``).  Returns ``None`` for
    relative imports that climb above the source root.
    """
    if node.level == 0:
        return node.module
    base = module.package_parts()
    hops = node.level - 1
    if hops > len(base):
        return None
    if hops:
        base = base[: len(base) - hops]
    if node.module:
        base = [*base, *node.module.split(".")]
    return ".".join(base) if base else None


class Project:
    """All modules under one source root, with static name resolution."""

    def __init__(self, root: Path, modules: dict[str, ModuleInfo]) -> None:
        self.root = root
        self.modules = modules

    @classmethod
    def scan(cls, root: Path) -> "Project":
        """Parse every ``.py`` under ``root`` into a project model.

        Files that fail to parse are skipped (the engine lints code, it
        does not compile it); hidden and ``__pycache__`` directories
        are pruned.
        """
        root = Path(root).resolve()
        modules: dict[str, ModuleInfo] = {}
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if any(part.startswith(".") or part == "__pycache__" for part in rel.parts):
                continue
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError):
                continue
            is_package = path.name == "__init__.py"
            parts = list(rel.parts[:-1]) if is_package else [
                *rel.parts[:-1],
                rel.stem,
            ]
            name = ".".join(parts) if parts else rel.stem
            modules[name] = ModuleInfo(
                path=path,
                relpath=rel.as_posix(),
                name=name,
                is_package=is_package,
                source=source,
                tree=tree,
            )
        return cls(root, modules)

    def __iter__(self) -> Iterable[ModuleInfo]:
        return iter(self.modules.values())

    def get(self, dotted: str) -> ModuleInfo | None:
        """Module by dotted name, or ``None``."""
        return self.modules.get(dotted)

    # -- static name resolution ---------------------------------------

    def resolve_class(
        self,
        module: ModuleInfo,
        class_name: str,
        _seen: frozenset[str] = frozenset(),
    ) -> tuple[ModuleInfo, ast.ClassDef] | None:
        """Find the ``ClassDef`` that ``class_name`` refers to in ``module``.

        Resolution order: a class defined in the module itself, then
        imports (following chains of re-exports through package
        ``__init__`` files), then — as a last resort — a *unique*
        top-level class of that name anywhere in the project.
        """
        if module.name in _seen:
            return None
        _seen = _seen | {module.name}

        own = module.top_level_classes().get(class_name)
        if own is not None:
            return module, own

        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if bound != class_name:
                        continue
                    target = resolve_relative_import(module, node)
                    if target is None:
                        continue
                    target_module = self.get(target)
                    if target_module is not None:
                        found = self.resolve_class(target_module, alias.name, _seen)
                        if found is not None:
                            return found
                    # ``from pkg import submodule`` binds a module, not
                    # a class; nothing to resolve in that case.

        candidates = [
            (m, m.top_level_classes()[class_name])
            for m in self.modules.values()
            if class_name in m.top_level_classes()
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None
