"""Inline suppression pragmas.

A finding can be acknowledged at its source line with a trailing
comment::

    fs = 48_000.0          # qa: ignore[QA004]
    x = thing()            # qa: ignore[QA001, QA004]
    y = other()            # qa: ignore

The bracketed form suppresses only the listed rule ids on that line;
the bare form suppresses every rule.  Pragmas are the one suppression
mechanism: each excuses one line, visible in review next to the code
it excuses, and there is no bulk waiver for pre-existing findings.
"""

from __future__ import annotations

import re

__all__ = ["PragmaIndex", "parse_pragmas"]

#: Matches ``# qa: ignore`` with an optional ``[QA001, QA002]`` list.
_PRAGMA_RE = re.compile(
    r"#\s*qa:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s-]*)\])?",
)

#: Sentinel rule set meaning "every rule".
ALL_RULES = frozenset({"*"})


class PragmaIndex:
    """Per-line suppression table for one module."""

    def __init__(self, by_line: dict[int, frozenset[str]]) -> None:
        self._by_line = by_line

    def suppresses(self, line: int, rule: str) -> bool:
        """Whether ``rule`` is suppressed on 1-based ``line``."""
        rules = self._by_line.get(line)
        if rules is None:
            return False
        return rules is ALL_RULES or "*" in rules or rule in rules

    def __len__(self) -> int:
        return len(self._by_line)


def parse_pragmas(source: str) -> PragmaIndex:
    """Scan source text for ``# qa: ignore`` pragmas.

    A pure line-regex scan is deliberate: pragmas inside string literals
    are vanishingly rare in practice and a tokenizer pass would make the
    linter fail on files Python itself can still parse.
    """
    by_line: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        listed = match.group("rules")
        if listed is None:
            by_line[lineno] = ALL_RULES
        else:
            rules = frozenset(
                part.strip().upper() for part in listed.split(",") if part.strip()
            )
            by_line[lineno] = rules if rules else ALL_RULES
    return PragmaIndex(by_line)
