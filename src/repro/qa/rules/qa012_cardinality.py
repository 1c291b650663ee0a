"""QA012 — label-cardinality discipline: rollup keys from the closed set.

The fleet-health tier survives production because its label space is
bounded on both axes: label *values* are budgeted at runtime (the
``__other__`` overflow fold), and label *keys* come from one closed
vocabulary, :data:`repro.obs.names.HEALTH_LABEL_KEYS`.  The runtime
enforces the key vocabulary too — but only on the code paths a test
happens to execute.  This rule enforces it at every call site
statically, so an invented dimension (``labels={"user_id": ...}`` — an
unbounded-cardinality classic) fails review even on a path no test
covers.

Concretely: every ``labels={...}`` dict literal passed to a
``.increment(...)`` / ``.observe(...)`` call must use string-literal
keys, each present in the ``HEALTH_LABEL_KEYS`` set declared by the
project's own ``obs.names`` module.  Computed keys are flagged as
well — a key built at runtime cannot be checked against the closed set
by anyone.  The vocabulary is read once per run, from the names
module's summary (the same static evaluation of the registry sets that
QA010 diffs against), so this is a whole-program rule.  Like QA010, it
is inert in projects without an ``obs.names`` module (or without the
vocabulary), so unrelated fixture trees never trip it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Rule, register
from ..findings import Finding, Severity
from ..graph import ProgramModel
from ..project import ModuleInfo

__all__ = ["LabelCardinalityRule"]

#: Monitor methods that accept a ``labels=`` rollup dimension mapping.
_LABELED_METHODS = frozenset({"increment", "observe"})

#: Name of the closed key vocabulary in the project's obs.names module.
_VOCABULARY = "HEALTH_LABEL_KEYS"


@register
class LabelCardinalityRule(Rule):
    """Health rollup label keys must come from obs.names.HEALTH_LABEL_KEYS."""

    rule_id = "QA012"
    severity = Severity.ERROR
    description = (
        "labels={...} dicts passed to .increment()/.observe() must use "
        "string-literal keys from the closed obs.names.HEALTH_LABEL_KEYS "
        "vocabulary — an invented or computed key is an unbounded "
        "cardinality risk no runtime budget can cap"
    )

    def check_program(self, program: ProgramModel) -> Iterable[Finding]:
        names = program.names_module()
        keys = None if names is None else names.registry_sets.get(_VOCABULARY)
        if keys is None:
            return
        vocabulary = frozenset(keys)
        for module in program.project:
            yield from self._check_module(module, vocabulary)

    def _check_module(
        self, module: ModuleInfo, vocabulary: frozenset[str]
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _LABELED_METHODS
            ):
                continue
            labels = next(
                (kw.value for kw in node.keywords if kw.arg == "labels"), None
            )
            if not isinstance(labels, ast.Dict):
                continue
            for keynode in labels.keys:
                if keynode is None:  # **spread: keys not statically known
                    yield self.finding(
                        module,
                        node.lineno,
                        "labels dict uses a **spread, so its keys cannot "
                        "be checked against the closed label vocabulary",
                        "spell the label keys out as string literals "
                        f"from obs.names.{_VOCABULARY}",
                    )
                    continue
                if not (
                    isinstance(keynode, ast.Constant)
                    and isinstance(keynode.value, str)
                ):
                    yield self.finding(
                        module,
                        keynode.lineno,
                        "computed label key cannot be checked against the "
                        "closed label vocabulary",
                        "use a string-literal key from "
                        f"obs.names.{_VOCABULARY}",
                    )
                    continue
                if keynode.value not in vocabulary:
                    yield self.finding(
                        module,
                        keynode.lineno,
                        f"label key `{keynode.value}` is not in the closed "
                        f"vocabulary obs.names.{_VOCABULARY} "
                        f"({', '.join(sorted(vocabulary))})",
                        "add the dimension to the vocabulary deliberately "
                        "(it is a cardinality budget, not a suggestion) "
                        "or use a declared key",
                    )
