"""Whole-program analysis: import graph, summaries, call graph.

This subpackage turns ``repro.qa`` from a per-file linter into a
whole-program analyzer.  The pipeline is::

    Project ──summarize_module──▶ ModuleSummary (one per module per run)
            ──ImportGraph.build──▶ module dependency edges
    {ModuleSummary} ──CallGraph──▶ interprocedural resolution + BFS

Rules that need the program view implement ``check_program`` (see
:class:`repro.qa.engine.Rule`) and receive a :class:`ProgramModel`
bundling all three artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..project import Project
from .callgraph import CallGraph
from .imports import ImportGraph, ModuleBindings, resolve_relative_import
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
    "ImportGraph",
    "LockAcquisition",
    "ModuleBindings",
    "ModuleSummary",
    "ProgramModel",
    "TelemetryUse",
    "build_program_model",
    "resolve_relative_import",
    "summarize_module",
]


@dataclass
class ProgramModel:
    """Everything a ``check_program`` rule hook receives."""

    project: Project
    summaries: dict[str, ModuleSummary]
    imports: ImportGraph
    callgraph: CallGraph


def build_program_model(project: Project) -> ProgramModel:
    """Summarize every module of ``project`` and assemble the program model."""
    table = {module.name: summarize_module(module) for module in project}
    return ProgramModel(
        project=project,
        summaries=table,
        imports=ImportGraph.build(project),
        callgraph=CallGraph(table),
    )
