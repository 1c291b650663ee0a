"""Shared AST utilities for rules.

The common need across rules is turning syntax back into *canonical
dotted names*: ``np.random.rand`` only means ``numpy.random.rand``
under this module's imports, and ``shuffle`` may be
``random.shuffle`` in disguise.  :class:`ImportMap` records what each
top-level binding canonically refers to, and :func:`canonical_name`
rewrites an expression's dotted chain through it.
"""

from __future__ import annotations

import ast

from ..project import ModuleInfo, attribute_chain

__all__ = ["ImportMap", "canonical_name", "module_subpackage"]


class ImportMap:
    """Top-level binding name → canonical dotted path for one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.bindings: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds ``numpy``.
                        head = alias.name.split(".")[0]
                        self.bindings[head] = head
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.bindings[bound] = f"{node.module}.{alias.name}"

    def canonicalize(self, dotted: str) -> str:
        """Rewrite a dotted chain's head through the import bindings."""
        head, _, rest = dotted.partition(".")
        canonical_head = self.bindings.get(head, head)
        return f"{canonical_head}.{rest}" if rest else canonical_head


def canonical_name(node: ast.expr, imports: ImportMap) -> str | None:
    """Canonical dotted name of an expression, or ``None``."""
    dotted = attribute_chain(node)
    if dotted is None:
        return None
    return imports.canonicalize(dotted)


def module_subpackage(module: ModuleInfo) -> str | None:
    """First component under the top-level package, or ``None``.

    ``repro.signal.chirp`` → ``"signal"``; the root package itself
    (``repro``) has no subpackage.
    """
    parts = module.name.split(".")
    return parts[1] if len(parts) >= 2 else None
