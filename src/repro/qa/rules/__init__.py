"""Domain lint rules.

Importing this package registers every rule with the engine registry
(:func:`repro.qa.engine.all_rules` relies on that side effect).  Each
rule lives in its own module, named after its id, and documents the
scientific invariant it protects in its module docstring.

QA001–QA007 and QA012 are per-file (``check_module``) rules;
QA008–QA010 are whole-program (``check_program``) rules built on the
call-graph and summary machinery in :mod:`repro.qa.graph`.  QA011
(dtype discipline) was retired with the single-precision kernel lane;
its id is not reused.
"""

from . import (  # noqa: F401  (imports register the rules)
    qa001_determinism,
    qa002_fingerprint,
    qa003_pool_safety,
    qa004_units,
    qa005_api,
    qa006_exceptions,
    qa007_telemetry,
    qa008_async_blocking,
    qa009_lock_discipline,
    qa010_telemetry_registry,
    qa012_cardinality,
)
from .qa001_determinism import DeterminismRule
from .qa002_fingerprint import FingerprintCompletenessRule
from .qa003_pool_safety import PoolSafetyRule
from .qa004_units import UnitDisciplineRule
from .qa005_api import PublicApiRule
from .qa006_exceptions import ExceptionBoundaryRule
from .qa007_telemetry import TelemetryDisciplineRule
from .qa008_async_blocking import AsyncBlockingRule
from .qa009_lock_discipline import LockDisciplineRule
from .qa010_telemetry_registry import TelemetryRegistryRule
from .qa012_cardinality import LabelCardinalityRule

__all__ = [
    "DeterminismRule",
    "FingerprintCompletenessRule",
    "PoolSafetyRule",
    "UnitDisciplineRule",
    "PublicApiRule",
    "ExceptionBoundaryRule",
    "TelemetryDisciplineRule",
    "AsyncBlockingRule",
    "LockDisciplineRule",
    "TelemetryRegistryRule",
    "LabelCardinalityRule",
]
