"""Project-wide import resolution: one binding table per module.

Relative imports are resolved, so ``obs_names.X`` inside
``repro.serve.service`` canonicalizes to ``repro.obs.names.X`` and the
call graph keeps its cross-package edges.  Computed from source only;
nothing is imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..project import ModuleInfo, resolve_relative_import

__all__ = ["ModuleBindings"]


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
