"""Rule registry and the lint engine that orchestrates a run.

A rule is a class with a ``rule_id``, a default :class:`Severity`, and
one or more of three hooks:

- :meth:`Rule.check_module` — called once per module (most rules);
- :meth:`Rule.check_project` — called once per run with the whole
  :class:`~repro.qa.project.Project` (rules that need cross-module
  *name* resolution, like fingerprint completeness);
- :meth:`Rule.check_program` — called once per run with the
  :class:`~repro.qa.graph.ProgramModel` (import graph + per-function
  summaries + call graph) for interprocedural rules (QA008–QA010).

Rules register themselves with the :func:`register` decorator; the
engine instantiates every registered rule (or a requested subset) and
runs them over a project in one serial pass that keeps no state: every
per-file rule checks every module, the program model is built from
summaries extracted in that run, and the whole-program rules run on
it.  Findings that an inline ``# qa: ignore`` pragma covers are then
set aside, and the engine returns a :class:`Report` that the CLI
renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence, Type

from .findings import Finding, Severity
from .pragmas import parse_pragmas
from .project import ModuleInfo, Project

if TYPE_CHECKING:  # imported lazily at runtime to keep startup light
    from .graph import ProgramModel

__all__ = ["Rule", "register", "all_rules", "QAEngine", "Report"]


class Rule:
    """Base class for lint rules; subclasses override one of the hooks."""

    #: Unique identifier, e.g. ``"QA001"``.
    rule_id: str = ""
    #: Default severity for this rule's findings.
    severity: Severity = Severity.ERROR
    #: One-line description shown by ``--list-rules``.
    description: str = ""

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        """Yield findings for one module (default: none)."""
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        """Yield project-wide findings (default: none)."""
        return ()

    def check_program(self, program: "ProgramModel") -> Iterable[Finding]:
        """Yield whole-program findings from the call-graph model."""
        return ()

    def finding(
        self,
        module_or_path: "ModuleInfo | str",
        line: int,
        message: str,
        suggestion: str | None = None,
        severity: Severity | None = None,
    ) -> Finding:
        """Convenience constructor stamping this rule's id/severity."""
        path = (
            module_or_path.relpath
            if isinstance(module_or_path, ModuleInfo)
            else module_or_path
        )
        return Finding(
            path=path,
            line=line,
            rule=self.rule_id,
            severity=severity or self.severity,
            message=message,
            suggestion=suggestion,
        )


_REGISTRY: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must define a rule_id")
    if cls.rule_id in _REGISTRY and _REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in id order."""
    from . import rules as _rules  # noqa: F401  (import registers the rules)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


@dataclass
class Report:
    """Everything one engine run produced, pre-sorted for rendering."""

    findings: list[Finding] = field(default_factory=list)
    pragma_suppressed: list[Finding] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        """Active findings at ERROR severity."""
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        """Active findings at WARNING severity."""
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def exit_code(self, strict: bool = False) -> int:
        """1 if the run should fail CI, else 0.

        Default mode fails on errors only; ``--strict`` also fails on
        warnings, so every finding that no pragma covers fails CI.
        """
        gate = self.findings if strict else self.errors
        return 1 if gate else 0


class QAEngine:
    """Run rules over a project and set aside pragma-covered findings."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules = list(rules) if rules is not None else all_rules()

    # -- collection -------------------------------------------------------

    def collect(self, project: Project) -> list[Finding]:
        """Raw findings from every rule, before any suppression."""
        findings: list[Finding] = []
        for rule in self.rules:
            findings.extend(rule.check_project(project))
        for module in project:
            for rule in self.rules:
                findings.extend(rule.check_module(module, project))

        program_rules = [
            rule
            for rule in self.rules
            if type(rule).check_program is not Rule.check_program
        ]
        if program_rules:
            from .graph import build_program_model

            program = build_program_model(project)
            for rule in program_rules:
                findings.extend(rule.check_program(program))
        return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))

    # -- suppression ------------------------------------------------------

    def run(self, project: Project) -> Report:
        """Collect findings, then set aside those a pragma covers."""
        raw = self.collect(project)

        pragma_indexes = {
            module.relpath: parse_pragmas(module.source) for module in project
        }
        surviving: list[Finding] = []
        pragma_suppressed: list[Finding] = []
        for finding in raw:
            index = pragma_indexes.get(finding.path)
            if index is not None and index.suppresses(finding.line, finding.rule):
                pragma_suppressed.append(finding)
            else:
                surviving.append(finding)
        return Report(findings=surviving, pragma_suppressed=pragma_suppressed)
