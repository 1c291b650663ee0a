"""repro.qa — AST-based domain lint engine for reproducibility invariants.

The EarSonar reproduction's results are only trustworthy while a set of
*domain* invariants hold — invariants no general-purpose linter knows
about:

- **QA001 determinism** — science packages never touch ambient entropy
  or wall clocks; randomness arrives as a threaded, seeded
  ``np.random.Generator``.
- **QA002 fingerprint completeness** — every field of the
  ``EarSonarConfig`` tree is visible to ``config_fingerprint``, so the
  feature cache can never serve results computed under a different
  configuration.
- **QA003 pool safety** — callables dispatched to process pools are
  module-level and state-free, so parallel runs stay byte-identical to
  serial ones.
- **QA004 unit discipline** — sample rates and band edges come from the
  config, never from inline literals.
- **QA005 public-API hygiene** — exported names carry docstrings and
  annotations.
- **QA006 exception boundaries** — broad ``except`` handlers appear
  only in the quarantine-boundary modules.
- **QA007 telemetry hygiene** — library modules emit structured events,
  never ``print``, under registered span and event names.
- **QA008 async blocking** — no blocking primitive is transitively
  reachable from an ``async def`` under ``serve``.
- **QA009 lock discipline** — locks nest in one global order, and
  pool-dispatched code never rebinds module globals.
- **QA010 telemetry registry** — every emitted telemetry name is
  declared in ``obs.names``, and every declared name is emitted.
- **QA012 label cardinality** — health label keys come from the closed
  ``obs.names.HEALTH_LABEL_KEYS`` vocabulary.

QA001, QA003–QA007 and QA012 check one module at a time, and QA002
follows the config tree across modules; QA008–QA010 run on the
whole-program model built from per-function summaries
(:mod:`repro.qa.graph`).

Run it as ``python -m repro.qa`` (see :mod:`repro.qa.__main__`); use it
programmatically via :class:`QAEngine`::

    from pathlib import Path
    from repro.qa import Project, QAEngine

    report = QAEngine().run(Project.scan(Path("src")))
    for finding in report.findings:
        print(finding.render())

A run is one serial pass that reads its source root and writes
nothing.  The one suppression is a ``# qa: ignore[QA001]`` pragma on
the offending line; every finding that no pragma covers is reported.
"""

from .engine import QAEngine, Report, Rule, all_rules, register
from .findings import Finding, Severity
from .pragmas import PragmaIndex, parse_pragmas
from .project import ModuleInfo, Project

__all__ = [
    "QAEngine",
    "Report",
    "Rule",
    "all_rules",
    "register",
    "Finding",
    "Severity",
    "PragmaIndex",
    "parse_pragmas",
    "ModuleInfo",
    "Project",
]
