"""Whole-program analysis: summaries and the call graph.

This subpackage turns ``repro.qa`` from a per-file linter into a
whole-program analyzer.  The pipeline is::

    Project ──summarize_module──▶ ModuleSummary (one per module per run)
    {ModuleSummary} ──CallGraph──▶ interprocedural resolution + BFS

Rules that need the program view implement ``check_program`` (see
:class:`repro.qa.engine.Rule`) and receive a :class:`ProgramModel`
bundling the project, the summaries and the call graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..project import Project
from .callgraph import CallGraph
from .imports import ModuleBindings
from .summaries import (
    BlockingUse,
    CallSite,
    ClassSummary,
    FunctionSummary,
    GlobalRebind,
    LockAcquisition,
    ModuleSummary,
    TelemetryUse,
    summarize_module,
)

__all__ = [
    "BlockingUse",
    "CallGraph",
    "CallSite",
    "ClassSummary",
    "FunctionSummary",
    "GlobalRebind",
    "LockAcquisition",
    "ModuleBindings",
    "ModuleSummary",
    "ProgramModel",
    "TelemetryUse",
    "build_program_model",
    "summarize_module",
]


@dataclass
class ProgramModel:
    """Everything a ``check_program`` rule hook receives."""

    project: Project
    summaries: dict[str, ModuleSummary]
    callgraph: CallGraph

    def names_module(self) -> ModuleSummary | None:
        """Summary of the project's ``obs.names`` registry module, if any."""
        for name in sorted(self.summaries):
            if name.removeprefix("repro.") == "obs.names":
                return self.summaries[name]
        return None


def build_program_model(project: Project) -> ProgramModel:
    """Summarize every module of ``project`` and assemble the program model."""
    table = {module.name: summarize_module(module) for module in project}
    return ProgramModel(
        project=project,
        summaries=table,
        callgraph=CallGraph(table),
    )
