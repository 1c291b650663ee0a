"""QA001 — determinism of the science path.

Every published number in the reproduction is a pure function of
``(waveforms, EarSonarConfig, seed)``.  That only holds if the DSP,
feature, acoustics, simulation, and core packages never reach for an
ambient entropy or clock source.  This rule forbids, inside those
packages:

- the legacy ``numpy.random`` module API (``np.random.rand``,
  ``np.random.seed``, ``RandomState`` …) — global mutable RNG state;
- the stdlib ``random`` module — per-process Mersenne state that no
  config fingerprints;
- wall-clock reads (``time.time``, ``datetime.now``/``utcnow``/
  ``today``) — monotonic ``perf_counter`` for latency metrics is fine;
- *creating* generators ad hoc: ``np.random.default_rng()`` unseeded,
  or seeded with an inline literal, inside library code.  Generators
  are created once at an entry point from a config/CLI seed and
  threaded down as ``np.random.Generator`` parameters.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Rule, register
from ..findings import Finding, Severity
from ..project import ModuleInfo, Project, attribute_chain
from ._helpers import ImportMap, canonical_name, module_subpackage

__all__ = ["DeterminismRule"]

#: Subpackages whose code must be deterministic under a threaded seed.
#: ``serve`` is held to the same standard in *virtual time*: its entire
#: behavior (deadlines, backpressure, fairness, the feedback loop) must
#: be a pure function of submitted requests and the injected clock.
SCIENCE_SUBPACKAGES = (
    "signal",
    "features",
    "acoustics",
    "simulation",
    "core",
    "kernels",
    "faultlab",
    "quality",
    "serve",
)

#: Modules that *implement* the clock abstraction and may therefore
#: touch real time sources; everything else in ``serve`` must go
#: through an injected :class:`repro.serve.clock.Clock`.
CLOCK_BOUNDARY_MODULES = frozenset({"serve.clock"})

#: Calls forbidden in ``serve`` outside the clock boundary: direct time
#: reads and sleeps (deterministic tests would hang or flake), and the
#: asyncio timeout helpers that hard-wire the real event-loop clock
#: (``wait_for``/``timeout`` time out on the wall even under a
#: VirtualClock — race the awaited work against the clock's ``sleep``).
_SERVE_CLOCK_CALLS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.sleep",
        "asyncio.sleep",
        "asyncio.wait_for",
        "asyncio.timeout",
    }
)


def _is_clock_boundary(module: ModuleInfo) -> bool:
    name = module.name
    if name.startswith("repro."):
        name = name[len("repro."):]
    return name in CLOCK_BOUNDARY_MODULES

#: ``numpy.random`` attributes that are part of the modern, explicitly
#: seeded Generator API and therefore allowed.
_ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Canonical names of wall-clock reads.
_CLOCK_READS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class DeterminismRule(Rule):
    """Forbid ambient entropy and wall clocks in science packages."""

    rule_id = "QA001"
    severity = Severity.ERROR
    description = (
        "science packages must not use legacy/global RNGs, the stdlib "
        "random module, or wall clocks; thread a seeded np.random.Generator"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        subpackage = module_subpackage(module)
        if subpackage not in SCIENCE_SUBPACKAGES:
            return
        if _is_clock_boundary(module):
            return
        in_serve = subpackage == "serve"
        imports = ImportMap(module.tree)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random" or (
                    node.module and node.module.startswith("random.")
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"import from stdlib 'random' module ('{node.module}')",
                        "use a threaded np.random.Generator instead",
                    )
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module,
                            node.lineno,
                            f"import of stdlib 'random' module ('{alias.name}')",
                            "use a threaded np.random.Generator instead",
                        )
                continue
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            yield from self._check_use(module, node, imports, in_serve=in_serve)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_rng_creation(module, node, imports)

    def _check_use(
        self,
        module: ModuleInfo,
        node: ast.expr,
        imports: ImportMap,
        in_serve: bool = False,
    ) -> Iterable[Finding]:
        dotted = attribute_chain(node)
        if dotted is None or dotted.split(".")[0] not in imports.bindings:
            # Chains rooted in locals (a variable that happens to be
            # called ``random``) are not uses of the forbidden modules.
            return
        name = imports.canonicalize(dotted)

        # Only the full chain resolves to a flaggable canonical name:
        # for ``np.random.rand`` the inner ``np.random`` maps to
        # ``numpy.random`` (allowed) so chains are not double-reported.
        if name.startswith("numpy.random.") and len(name.split(".")) >= 3:
            attr = name.split(".")[2]
            if attr not in _ALLOWED_NP_RANDOM:
                yield self.finding(
                    module,
                    node.lineno,
                    f"legacy numpy RNG '{name}' uses hidden global state",
                    "thread an explicitly seeded np.random.Generator parameter",
                )
        elif name.startswith("random."):
            yield self.finding(
                module,
                node.lineno,
                f"stdlib random call '{name}' is unseeded process state",
                "thread an explicitly seeded np.random.Generator parameter",
            )
        elif name in _CLOCK_READS:
            yield self.finding(
                module,
                node.lineno,
                f"wall-clock read '{name}' makes results time-dependent",
                "use time.perf_counter for latency metrics; pass timestamps in",
            )
        elif in_serve and name in _SERVE_CLOCK_CALLS:
            yield self.finding(
                module,
                node.lineno,
                f"direct time source '{name}' in repro.serve bypasses the "
                "injected Clock, breaking virtual-time determinism",
                "read/sleep via the injected repro.serve.clock.Clock (race "
                "clock.sleep for timeouts)",
            )

    def _check_rng_creation(
        self, module: ModuleInfo, node: ast.Call, imports: ImportMap
    ) -> Iterable[Finding]:
        """Generators must be threaded down, not created ad hoc."""
        name = canonical_name(node.func, imports)
        if name != "numpy.random.default_rng":
            return
        if not node.args and not node.keywords:
            yield self.finding(
                module,
                node.lineno,
                "unseeded np.random.default_rng() draws OS entropy",
                "accept an np.random.Generator (or seed) parameter instead",
            )
        elif node.args and isinstance(node.args[0], ast.Constant):
            yield self.finding(
                module,
                node.lineno,
                f"np.random.default_rng({node.args[0].value!r}) hard-codes a "
                "seed inside library code",
                "seeds belong in configs and entry points; thread the "
                "Generator down",
            )
