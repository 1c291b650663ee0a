"""QA003 — process-pool safety of dispatched callables.

:class:`~repro.runtime.executor.BatchExecutor` fans work out over a
``ProcessPoolExecutor``.  Everything submitted crosses a pickle
boundary, so the callable must be importable by name in the worker:

- a **lambda** or **nested function** fails to pickle at runtime — but
  only on the first parallel run, which the test suite (serial by
  default) never exercises;
- a **bound method** drags its whole instance through pickle, silently
  shipping open handles/caches and breaking whenever any attribute is
  unpicklable;
- a nested function that *does* sneak through via a wrapper closes over
  locals (open files, RNG state) whose worker-side copies diverge from
  the parent.

The rule statically checks the first argument of ``.submit(...)`` and
of the map-family methods on pool-like receivers, unwrapping
``functools.partial``.  Module-level functions pass; everything else is
flagged at the dispatch site.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterable

from ..engine import Rule, register
from ..findings import Finding, Severity
from ..project import ModuleInfo, Project, attribute_chain

__all__ = ["PoolSafetyRule"]

#: Methods whose first argument is a callable shipped to workers.
_MAP_METHODS = frozenset({"map", "imap", "imap_unordered", "starmap", "apply_async"})

#: Receiver-name fragments that mark a pool-like object for the
#: map-family check (``submit`` is distinctive enough on its own).
_POOLISH = ("pool", "executor")


def _collect_module_level_names(tree: ast.Module) -> set[str]:
    """Names bound at module level to defs, classes, or imports."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not isinstance(
                    node.value, ast.Lambda
                ):
                    names.add(target.id)
    return names


def _collect_nested_defs(tree: ast.Module) -> dict[str, int]:
    """Function names defined *inside* other functions → def line."""
    nested: dict[str, int] = {}

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.depth = 0

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            if self.depth > 0:
                nested[node.name] = node.lineno
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    Visitor().visit(tree)
    return nested


def _collect_lambda_bindings(tree: ast.Module) -> dict[str, int]:
    """Names assigned from a lambda anywhere in the module → line."""
    bindings: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = node.lineno
    return bindings


@register
class PoolSafetyRule(Rule):
    """Callables crossing the process-pool boundary must be module-level."""

    rule_id = "QA003"
    severity = Severity.ERROR
    description = (
        "functions submitted to process pools must be module-level; lambdas, "
        "nested functions, and bound methods break pickling or ship state"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        dispatch_sites = list(self._dispatch_sites(module.tree))
        if not dispatch_sites:
            return
        module_level = _collect_module_level_names(module.tree)
        nested = _collect_nested_defs(module.tree)
        lambdas = _collect_lambda_bindings(module.tree)

        for call, method in dispatch_sites:
            if not call.args:
                continue
            yield from self._check_callable(
                module, call.args[0], method, module_level, nested, lambdas
            )

    def _dispatch_sites(
        self, tree: ast.Module
    ) -> Iterable[tuple[ast.Call, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            method = node.func.attr
            if method == "submit":
                yield node, method
            elif method in _MAP_METHODS:
                receiver = attribute_chain(node.func.value) or ""
                if any(p in receiver.lower() for p in _POOLISH):
                    yield node, method

    def _check_callable(
        self,
        module: ModuleInfo,
        fn: ast.expr,
        method: str,
        module_level: set[str],
        nested: dict[str, int],
        lambdas: dict[str, int],
    ) -> Iterable[Finding]:
        if isinstance(fn, ast.Lambda):
            yield self.finding(
                module,
                fn.lineno,
                f"lambda passed to .{method}(): lambdas cannot be pickled "
                "into pool workers",
                "hoist it to a module-level function",
            )
            return
        if isinstance(fn, ast.Call):
            # functools.partial(f, ...) pickles iff f does: unwrap.
            target = attribute_chain(fn.func) or ""
            if target.endswith("partial") and fn.args:
                yield from self._check_callable(
                    module, fn.args[0], method, module_level, nested, lambdas
                )
            return
        if isinstance(fn, ast.Attribute):
            chain = attribute_chain(fn)
            head = (chain or "").split(".")[0]
            if head in module_level:
                return  # e.g. mymodule.worker_fn — importable by name
            yield self.finding(
                module,
                fn.lineno,
                f"bound method or attribute '{chain or '?'}' passed to "
                f".{method}(): pickling ships the whole instance to workers",
                "pass a module-level function and the needed data explicitly",
            )
            return
        if isinstance(fn, ast.Name):
            if fn.id in lambdas:
                yield self.finding(
                    module,
                    fn.lineno,
                    f"'{fn.id}' (assigned from a lambda on line "
                    f"{lambdas[fn.id]}) passed to .{method}(): lambdas cannot "
                    "be pickled into pool workers",
                    "define it with def at module level",
                )
            elif fn.id in nested:
                yield self.finding(
                    module,
                    fn.lineno,
                    f"nested function '{fn.id}' (defined on line "
                    f"{nested[fn.id]}) passed to .{method}(): closures cannot "
                    "be pickled into pool workers",
                    "hoist it to module level and pass captured state as "
                    "arguments",
                )
            elif fn.id not in module_level and not hasattr(builtins, fn.id):
                yield self.finding(
                    module,
                    fn.lineno,
                    f"cannot statically verify '{fn.id}' passed to "
                    f".{method}() is a module-level callable",
                    "prefer passing module-level functions directly to pool "
                    "dispatch",
                    severity=Severity.WARNING,
                )
