"""QA006 — broad exception handlers only at quarantine boundaries.

The reproduction's failure policy is *typed*: expected signal failures
are :class:`~repro.errors.SignalProcessingError` subclasses, runtime
infrastructure failures are :class:`~repro.errors.ExecutionError`
subclasses, and everything else is a programming error that must crash
loudly.  A ``except Exception`` (or a bare ``except:``) anywhere in the
science code collapses that taxonomy — a typo'd attribute gets
quarantined as if it were a bad recording, and a NaN-producing bug
ships silently as data.

Broad handlers are therefore allowed only in the designated quarantine
boundaries — the modules whose *job* is converting arbitrary worker
failure into structured quarantine records — and flagged everywhere
else.  Narrow multi-exception tuples (``except (OSError, ValueError)``)
are always fine: naming the failure modes is exactly the discipline the
rule enforces.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Rule, register
from ..findings import Finding, Severity
from ..project import ModuleInfo, Project, attribute_chain

__all__ = ["ExceptionBoundaryRule"]

#: Modules allowed to catch broadly: the executor's pool-result loop
#: and the per-recording quarantine machinery.  Stored without the
#: top-level package prefix; matching tolerates scanning either the
#: package directory (``runtime.executor``) or its parent
#: (``repro.runtime.executor``).
QUARANTINE_BOUNDARY_MODULES = frozenset(
    {
        "runtime.executor",
        "runtime.faults",
        # The service dispatch path: a crashed micro-batch must fail its
        # own requests' futures (typed quarantine records), never the
        # dispatch loop or the other tenants' pending work.
        "serve.service",
    }
)


def _is_boundary(module: ModuleInfo) -> bool:
    name = module.name
    if name.startswith("repro."):
        name = name[len("repro."):]
    return name in QUARANTINE_BOUNDARY_MODULES

#: Exception names considered "broad": catching these (or nothing at
#: all) swallows programming errors.
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _broad_name(node: ast.expr) -> str | None:
    """The broad exception name matched by ``node``, if any."""
    chain = attribute_chain(node) if isinstance(node, ast.Attribute) else None
    if isinstance(node, ast.Name):
        chain = node.id
    if chain is None:
        return None
    leaf = chain.split(".")[-1]
    return leaf if leaf in _BROAD_NAMES else None


@register
class ExceptionBoundaryRule(Rule):
    """Bare/broad ``except`` only inside quarantine-boundary modules."""

    rule_id = "QA006"
    severity = Severity.ERROR
    description = (
        "bare 'except:' and 'except Exception' are allowed only in "
        "quarantine-boundary modules; elsewhere catch the specific "
        "exception types the code can actually handle"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterable[Finding]:
        if _is_boundary(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node.lineno,
                    "bare 'except:' catches everything, including "
                    "KeyboardInterrupt and programming errors",
                    "catch the specific exception types this code handles",
                )
                continue
            exprs = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for expr in exprs:
                name = _broad_name(expr)
                if name is not None:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"'except {name}' outside a quarantine boundary "
                        "swallows programming errors as if they were data "
                        "faults",
                        "catch the specific repro.errors types, or move the "
                        "handler into a designated quarantine-boundary module",
                    )
