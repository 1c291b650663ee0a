"""QA007 — telemetry discipline: no ad-hoc output, registered names only.

Observability is an interface, not a side effect.  Two habits erode it:

1. **Ad-hoc output.**  A ``print()`` or ``sys.stderr.write`` buried in
   a library module is telemetry nobody can query: it reaches no span,
   metric or run record, and is lost in a pool worker whose stdout
   nobody reads.  Library code records through :mod:`repro.obs` (a
   span attribute, a counter) or returns strings for a CLI to print;
   only ``__main__`` entry-point modules own stdout/stderr.

2. **Free-form span names.**  A span named by a string literal at the
   call site drifts: two sites spell the same stage two ways, and
   dashboards/tests silently miss one.  Every name passed to
   ``.span(...)`` must be a registered constant from
   :mod:`repro.obs.names`, the single source of truth the exporters
   and the canonical-emission test are built on.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Rule, register
from ..findings import Finding, Severity
from ..project import ModuleInfo, Project
from ._helpers import ImportMap, canonical_name

__all__ = ["TelemetryDisciplineRule"]

#: Canonical dotted calls that write raw text to the process streams.
_STREAM_WRITES = frozenset(
    {
        "sys.stdout.write",
        "sys.stderr.write",
    }
)

#: Method names whose first positional argument is a telemetry name
#: that must come from :mod:`repro.obs.names`.
_NAMED_TELEMETRY_METHODS = frozenset({"span"})


def _is_entry_point(module: ModuleInfo) -> bool:
    return module.name.rsplit(".", 1)[-1] == "__main__"


@register
class TelemetryDisciplineRule(Rule):
    """No print/stream writes in library modules; span names from constants."""

    rule_id = "QA007"
    severity = Severity.ERROR
    description = (
        "library modules must not print() or write to sys.stdout/stderr "
        "(record through repro.obs instead; __main__ modules are exempt), "
        "and span names must be registered constants from "
        "repro.obs.names, never string literals at the call site"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        entry_point = _is_entry_point(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not entry_point:
                yield from self._check_raw_output(module, node, imports)
            yield from self._check_telemetry_name(module, node)

    def _check_raw_output(
        self, module: ModuleInfo, node: ast.Call, imports: ImportMap
    ) -> Iterable[Finding]:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield self.finding(
                module,
                node.lineno,
                "print() in a library module is output no span, metric "
                "or run record keeps (and is lost inside pool workers)",
                "record it through repro.obs (a span attribute or a "
                "counter), or return the text and let a __main__ module "
                "print it",
            )
            return
        dotted = canonical_name(node.func, imports)
        if dotted in _STREAM_WRITES:
            yield self.finding(
                module,
                node.lineno,
                f"{dotted}() in a library module is output no span, "
                "metric or run record keeps",
                "record it through repro.obs (a span attribute or a "
                "counter) instead of writing to the raw stream",
            )

    def _check_telemetry_name(
        self, module: ModuleInfo, node: ast.Call
    ) -> Iterable[Finding]:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _NAMED_TELEMETRY_METHODS
            and node.args
        ):
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield self.finding(
                module,
                node.lineno,
                f".{func.attr}({first.value!r}, ...) names the span "
                "with a string literal, so the name can drift from the "
                "registry unnoticed",
                "use the registered constant from repro.obs.names "
                "(add one there if this is a new span)",
            )
