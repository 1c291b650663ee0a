"""Project-wide import resolution: bindings and the module import graph.

The whole-program rules need two things the per-file :class:`ImportMap`
cannot give them:

- **relative imports resolved** — ``from ..obs import names as
  obs_names`` inside ``repro.serve.service`` must canonicalize
  ``obs_names.X`` to ``repro.obs.names.X``, or every cross-package edge
  in the call graph is lost;
- **a module-level dependency graph** — which project modules each
  module imports, so incremental invalidation and rule scoping can
  reason about the package topology without re-walking every AST.

Both are computed from source only; nothing is imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..project import ModuleInfo, Project

__all__ = ["ModuleBindings", "ImportGraph", "resolve_relative_import"]


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


@dataclass
class ModuleBindings:
    """Top-level binding name → canonical dotted target for one module.

    Unlike the per-file :class:`~repro.qa.rules._helpers.ImportMap`,
    relative imports are resolved to absolute dotted names, so the
    canonical form of ``obs_names.METRIC_X`` is identical regardless of
    how the module spelled the import.  A binding's target may name a
    module (``from . import clock`` → ``repro.serve.clock``) or a
    symbol inside one (``from .clock import Clock`` →
    ``repro.serve.clock.Clock``); the call graph disambiguates.
    """

    bindings: dict[str, str] = field(default_factory=dict)

    @classmethod
    def collect(cls, module: ModuleInfo) -> "ModuleBindings":
        """Scan a module's imports into a binding table."""
        bindings: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bindings[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        bindings[head] = head
            elif isinstance(node, ast.ImportFrom):
                target = resolve_relative_import(module, node)
                if target is None:
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    bindings[bound] = f"{target}.{alias.name}"
        return cls(bindings)

    def canonicalize(self, dotted: str) -> str:
        """Rewrite a dotted chain's head through the binding table."""
        head, _, rest = dotted.partition(".")
        canonical_head = self.bindings.get(head, head)
        return f"{canonical_head}.{rest}" if rest else canonical_head

    def __contains__(self, name: str) -> bool:
        return name in self.bindings


class ImportGraph:
    """Directed module-dependency graph over one project."""

    def __init__(self, edges: dict[str, frozenset[str]]) -> None:
        self.edges = edges

    @classmethod
    def build(cls, project: Project) -> "ImportGraph":
        """Edges from each module to the project modules it imports.

        Both forms contribute: ``import repro.signal.chirp`` and
        ``from ..signal import chirp``.  A ``from pkg import name``
        where ``pkg.name`` is itself a project module counts as an edge
        to the submodule; otherwise the edge lands on ``pkg``.
        """
        edges: dict[str, frozenset[str]] = {}
        for module in project:
            targets: set[str] = set()
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if project.get(alias.name) is not None:
                            targets.add(alias.name)
                elif isinstance(node, ast.ImportFrom):
                    base = resolve_relative_import(module, node)
                    if base is None:
                        continue
                    for alias in node.names:
                        sub = f"{base}.{alias.name}"
                        if project.get(sub) is not None:
                            targets.add(sub)
                        elif project.get(base) is not None:
                            targets.add(base)
            targets.discard(module.name)
            edges[module.name] = frozenset(targets)
        return cls(edges)

