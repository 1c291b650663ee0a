"""Unit tests for the whole-program graph layer (imports/summaries/callgraph)."""

from __future__ import annotations

import pytest

from repro.qa.graph import (
    CallGraph,
    ImportGraph,
    ModuleBindings,
    build_program_model,
    summarize_module,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# ---------------------------------------------------------------------------
# Import resolution
# ---------------------------------------------------------------------------


def test_relative_import_canonicalized(make_project):
    project = make_project(
        {
            "repro/serve/service.py": """
                from ..obs import names as obs_names
                from . import clock
                from .clock import Clock
                import functools
                """,
            "repro/obs/names.py": "X = 'x'\n",
            "repro/serve/clock.py": "class Clock: pass\n",
        }
    )
    bindings = ModuleBindings.collect(project.get("repro.serve.service"))
    assert bindings.canonicalize("obs_names.X") == "repro.obs.names.X"
    assert bindings.canonicalize("clock.Clock") == "repro.serve.clock.Clock"
    assert bindings.canonicalize("Clock") == "repro.serve.clock.Clock"
    assert bindings.canonicalize("functools.partial") == "functools.partial"


def test_import_graph_edges_and_transitive(make_project):
    project = make_project(
        {
            "repro/a.py": "from . import b\n",
            "repro/b.py": "from . import c\n",
            "repro/c.py": "X = 1\n",
            "repro/d.py": "Y = 2\n",
        }
    )
    graph = ImportGraph.build(project)
    assert "repro.b" in graph.imports_of("repro.a")
    assert graph.importers_of("repro.c") == frozenset({"repro.b"})
    transitive = graph.transitive_imports("repro.a")
    assert {"repro.b", "repro.c"} <= transitive
    assert "repro.d" not in transitive


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def test_summary_captures_calls_blocking_locks_telemetry(make_project):
    project = make_project(
        {
            "repro/pkg/mod.py": """
                import time
                import threading
                from ..obs import names as obs_names

                _LOCK = threading.Lock()

                class Worker:
                    def __init__(self):
                        self.guard = threading.Lock()

                    def run(self, metrics):
                        with _LOCK:
                            with self.guard:
                                time.sleep(0.1)
                        metrics.increment(obs_names.COUNTER)
                        data = open("f").read()
                        return data
                """,
            "repro/obs/names.py": "COUNTER = 'c'\n",
        }
    )
    summary = summarize_module(project.get("repro.pkg.mod"))
    run = next(fn for fn in summary.functions if fn.name == "run")
    assert run.owner_class == "repro.pkg.mod.Worker"

    lock_ids = [acq.lock_id for acq in run.locks]
    assert "repro.pkg.mod._LOCK" in lock_ids
    assert "repro.pkg.mod.Worker.guard" in lock_ids
    nested = next(a for a in run.locks if a.lock_id == "repro.pkg.mod.Worker.guard")
    assert nested.held == ("repro.pkg.mod._LOCK",)

    categories = {use.category for use in run.blocking}
    assert {"sleep", "file-io", "lock"} <= categories
    sleep = next(u for u in run.blocking if u.category == "sleep")
    assert sleep.symbol == "time.sleep"
    assert sleep.lineno == 14

    telemetry = [(u.kind, u.form, u.ref) for u in run.telemetry]
    assert ("counter", "constant", "repro.obs.names.COUNTER") in telemetry


def test_summary_tracks_registry_sets_with_star_expansion(make_project):
    project = make_project(
        {
            "repro/obs/names.py": """
                A = "a"
                B = "b"
                STAGE = (A, B)
                ALL = frozenset({"lit", *STAGE})
                TABLE = {"k": A}
                """,
        }
    )
    summary = summarize_module(project.get("repro.obs.names"))
    assert summary.registry_sets["STAGE"] == ("a", "b")
    assert set(summary.registry_sets["ALL"]) == {"lit", "a", "b"}
    assert summary.registry_sets["TABLE"] == ("a",)


# ---------------------------------------------------------------------------
# Call graph resolution
# ---------------------------------------------------------------------------


def test_cross_module_and_method_resolution(make_project):
    project = make_project(
        {
            "repro/app/runner.py": """
                from ..lib.work import Worker, helper

                def main():
                    worker = Worker()
                    worker.step()
                    helper()
                """,
            "repro/lib/work.py": """
                class Base:
                    def inherited(self):
                        return 1

                class Worker(Base):
                    def step(self):
                        self.inherited()

                def helper():
                    return 2
                """,
        }
    )
    model = build_program_model(project)
    cg = model.callgraph

    main = cg.functions["repro.app.runner.main"]
    targets = {target.qualname for _site, target in cg.callees(main)}
    # Constructor resolves only if __init__ exists; step/helper must.
    assert "repro.lib.work.Worker.step" in targets
    assert "repro.lib.work.helper" in targets

    # Method inherited from a base class resolves through bases.
    step = cg.functions["repro.lib.work.Worker.step"]
    step_targets = {t.qualname for _s, t in cg.callees(step)}
    assert step_targets == {"repro.lib.work.Base.inherited"}

    reachable = cg.reachable_from(main)
    assert "repro.lib.work.Base.inherited" in reachable
    assert reachable["repro.lib.work.Base.inherited"] == (
        "repro.app.runner.main",
        "repro.lib.work.Worker.step",
        "repro.lib.work.Base.inherited",
    )


def test_reexport_chase_through_package_init(make_project):
    project = make_project(
        {
            "repro/lib/__init__.py": "from .impl import work\n",
            "repro/lib/impl.py": """
                def work():
                    return 1
                """,
            "repro/app.py": """
                from . import lib

                def main():
                    lib.work()
                """,
        }
    )
    model = build_program_model(project)
    cg = model.callgraph
    main = cg.functions["repro.app.main"]
    targets = {t.qualname for _s, t in cg.callees(main)}
    assert targets == {"repro.lib.impl.work"}


def test_partial_unwrap_produces_edge(make_project):
    project = make_project(
        {
            "repro/app.py": """
                import functools
                from .lib import work

                def main():
                    f = functools.partial(work, 1)
                    return f
                """,
            "repro/lib.py": """
                def work(x):
                    return x
                """,
        }
    )
    model = build_program_model(project)
    cg = model.callgraph
    main = cg.functions["repro.app.main"]
    sites = {(s.name, s.via_partial) for s in main.calls}
    assert ("repro.lib.work", True) in sites
    assert {t.qualname for _s, t in cg.callees(main)} == {"repro.lib.work"}


def test_dynamic_receiver_produces_no_edge(make_project):
    project = make_project(
        {
            "repro/app.py": """
                class Service:
                    def __init__(self, runner):
                        self._runner = runner

                    def go(self):
                        self._runner()
                """,
        }
    )
    model = build_program_model(project)
    go = model.callgraph.functions["repro.app.Service.go"]
    assert model.callgraph.callees(go) == []
