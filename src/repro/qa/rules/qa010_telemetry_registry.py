"""QA010 — telemetry consistency: registries and emission sites must agree.

QA007 polices the *form* of telemetry (constants, not literals, for
span names).  This rule polices the *content*, both directions:

- **emitted-but-undeclared** — a counter/histogram/span name used
  at some call site that no ``obs.names`` registry set declares.
  Dashboards, the Prometheus exporter, and the canonical-emission tests
  all iterate the registries; an undeclared name is invisible to every
  one of them.
- **declared-but-never-emitted** — a registry entry no call site in the
  whole program references.  Dead names rot: a rename that forgets the
  registry, or a removed emission that leaves the dashboard panel
  permanently flat, both land here.

Emission sites come from the function summaries (every ``.span`` /
``.increment`` / ``.observe`` / ``.histogram`` first
argument that is a string literal, a registered constant, a registry
subscript like ``SERVE_REJECTION_COUNTERS[reason]``, or the
``tenant_counter(BASE, ...)`` pattern).  Matching is **by value**, so a
literal spelling of a registered name still counts as an emission — the
registry is the source of truth for *names*, QA007 for *style*.
Dynamic per-tenant names (``tenant_counter`` bases) are patterns, not
fixed names, and sit outside the declared universe.

The rule is inert in projects without an ``obs.names`` module, so
unrelated fixture trees never trip it.
"""

from __future__ import annotations

from typing import Iterable

from ..engine import Rule, register
from ..findings import Finding, Severity
from ..graph import ModuleSummary, ProgramModel

__all__ = ["TelemetryRegistryRule"]

#: Telemetry kind → the registry-set names whose union declares it.
KIND_REGISTRIES: dict[str, tuple[str, ...]] = {
    "span": ("SPAN_NAMES",),
    "counter": (
        "CANONICAL_COUNTERS",
        "SERVE_CANONICAL_COUNTERS",
        "SERVE_REJECTION_COUNTERS",
        "ECHO_CONDITIONAL_COUNTERS",
        "HEALTH_COUNTER_SERIES",
    ),
    "histogram": (
        "CANONICAL_HISTOGRAMS",
        "SERVE_CANONICAL_HISTOGRAMS",
        "HEALTH_DISTRIBUTION_SERIES",
    ),
}


def _find_names_module(program: ProgramModel) -> ModuleSummary | None:
    for name in sorted(program.summaries):
        normalized = name[len("repro."):] if name.startswith("repro.") else name
        if normalized == "obs.names":
            return program.summaries[name]
    return None


@register
class TelemetryRegistryRule(Rule):
    """Two-way diff between obs.names registries and actual emission sites."""

    rule_id = "QA010"
    severity = Severity.ERROR
    description = (
        "every telemetry name emitted anywhere must be declared in an "
        "obs.names registry set, and every declared name must be emitted "
        "somewhere — both directions of drift fail"
    )

    def check_program(self, program: ProgramModel) -> Iterable[Finding]:
        names = _find_names_module(program)
        if names is None:
            return
        declared: dict[str, set[str]] = {
            kind: {
                value
                for registry in registries
                for value in names.registry_sets.get(registry, ())
            }
            for kind, registries in KIND_REGISTRIES.items()
        }
        constants = {
            f"{names.module}.{const}": value
            for const, (value, _line) in names.string_constants.items()
        }

        emitted: dict[str, set[str]] = {kind: set() for kind in KIND_REGISTRIES}
        for module_name in sorted(program.summaries):
            summary = program.summaries[module_name]
            for fn in summary.functions:
                for use in fn.telemetry:
                    if use.kind not in declared:
                        continue
                    if use.form == "literal":
                        value = use.ref
                    elif use.form == "constant":
                        value = constants.get(use.ref)
                        if value is None:
                            continue  # constant from elsewhere: not a name
                    elif use.form == "subscript":
                        prefix = f"{names.module}."
                        if use.ref.startswith(prefix):
                            registry = use.ref[len(prefix):]
                            emitted[use.kind].update(
                                names.registry_sets.get(registry, ())
                            )
                        continue
                    else:  # "pattern": dynamic names, outside the universe
                        continue
                    emitted[use.kind].add(value)
                    if value not in declared[use.kind]:
                        yield self.finding(
                            summary.relpath,
                            use.lineno,
                            f"{use.kind} name `{value}` is emitted here "
                            f"but declared in no obs.names registry "
                            f"({' / '.join(KIND_REGISTRIES[use.kind])})",
                            "register the name in obs.names (exporters "
                            "and canonical-emission tests iterate the "
                            "registries), or fix the spelling drift",
                        )

        value_lines = {
            value: line for value, line in names.string_constants.values()
        }
        for kind in sorted(declared):
            for value in sorted(declared[kind] - emitted[kind]):
                yield self.finding(
                    program.summaries[names.module].relpath,
                    value_lines.get(value, 1),
                    f"{kind} name `{value}` is declared in obs.names "
                    "but emitted nowhere in the project",
                    "remove the dead registry entry, or wire up the "
                    "emission it was declared for",
                )
