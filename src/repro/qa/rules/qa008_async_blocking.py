"""QA008 — async discipline: no blocking primitive reachable from serve coroutines.

The serving layer is a single asyncio event loop.  One blocking call —
``time.sleep``, file I/O, ``subprocess``, a ``threading.Lock`` /
``FileLock`` acquisition — anywhere in a coroutine's *transitive* call
tree stalls every in-flight request at once, and the per-file rules
cannot see it: the sleep typically lives two modules away from the
``async def`` that reaches it.

This rule walks the whole-program call graph from every ``async def``
defined under ``serve`` and flags each blocking primitive reachable
along statically resolvable edges, anchored at the *sink* (the blocking
call's own file and line) so a ``# qa: ignore[QA008]`` pragma at the
sink is the sanctioning mechanism.  Two boundaries are exempt:

- ``serve.clock`` — the injected-clock module is *where* sanctioned
  waiting lives (``VirtualClock`` makes it deterministic); traversal
  neither starts in it nor descends into it;
- ``__main__`` entry-point modules — process edges (stdin/stdout,
  spool files) are the CLI's job, mirroring QA007's exemption.

Unresolvable dynamic callables produce no edge, so the rule
under-approximates: absence of findings is not a proof, but every
finding is a real reachable path.
"""

from __future__ import annotations

from typing import Iterable

from ..engine import Rule, register
from ..findings import Finding, Severity
from ..graph import FunctionSummary, ProgramModel

__all__ = ["AsyncBlockingRule"]

#: Modules (dotted, ``repro.`` prefix optional) sanctioned to block/wait.
BOUNDARY_MODULES = frozenset({"serve.clock"})


def _normalized(module_name: str) -> str:
    if module_name.startswith("repro."):
        return module_name[len("repro."):]
    return module_name


def _is_boundary(module_name: str) -> bool:
    return _normalized(module_name) in BOUNDARY_MODULES


def _subpackage(module_name: str) -> str | None:
    parts = module_name.split(".")
    return parts[1] if len(parts) >= 2 else None


@register
class AsyncBlockingRule(Rule):
    """No blocking primitive transitively reachable from serve coroutines."""

    rule_id = "QA008"
    severity = Severity.ERROR
    description = (
        "no blocking primitive (time.sleep, open/file I/O, subprocess, "
        "lock acquisition) may be transitively reachable from an async "
        "def under serve; serve.clock is the sanctioned waiting boundary "
        "and __main__ entry points are exempt"
    )

    def check_program(self, program: ProgramModel) -> Iterable[Finding]:
        cg = program.callgraph
        skip = frozenset(
            name for name in program.summaries if _is_boundary(name)
        )
        roots = self._roots(program)
        # sink (module, line, symbol) → shortest/first call chain.
        best: dict[tuple[str, int, str], tuple[str, ...]] = {}
        for root in roots:
            paths = cg.reachable_from(root, skip_modules=skip)
            for qualname in sorted(paths):
                fn = cg.functions.get(qualname)
                if fn is None:
                    continue
                for use in fn.blocking:
                    key = (fn.module, use.lineno, use.symbol)
                    chain = paths[qualname]
                    current = best.get(key)
                    if current is None or (len(chain), chain) < (
                        len(current),
                        current,
                    ):
                        best[key] = chain
        for (module_name, lineno, symbol), chain in sorted(best.items()):
            summary = program.summaries[module_name]
            sink_fn = chain[-1]
            category = self._category(program, module_name, lineno, symbol)
            yield self.finding(
                summary.relpath,
                lineno,
                f"blocking {category} `{symbol}` in `{sink_fn}` is "
                f"reachable from the serve event loop "
                f"(call chain: {' -> '.join(chain)})",
                "route waiting through the injected Clock (serve.clock), "
                "move the blocking work behind the executor boundary, or "
                "sanction this sink with `# qa: ignore[QA008]`",
            )

    @staticmethod
    def _roots(program: ProgramModel) -> list[FunctionSummary]:
        roots: list[FunctionSummary] = []
        for name in sorted(program.summaries):
            if _subpackage(name) != "serve":
                continue
            if _is_boundary(name) or program.project.modules[name].is_entry_point:
                continue
            summary = program.summaries[name]
            roots.extend(fn for fn in summary.functions if fn.is_async)
        return roots

    @staticmethod
    def _category(
        program: ProgramModel, module_name: str, lineno: int, symbol: str
    ) -> str:
        summary = program.summaries[module_name]
        for fn in summary.functions:
            for use in fn.blocking:
                if use.lineno == lineno and use.symbol == symbol:
                    return use.category
        return "call"
