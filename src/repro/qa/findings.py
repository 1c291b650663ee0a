"""Structured lint findings.

Every rule reports :class:`Finding` objects rather than printing text:
the engine owns presentation (text, JSON, SARIF), suppression (inline
pragmas), and exit-code policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How seriously a finding threatens reproducibility.

    ``ERROR`` findings break an invariant the science depends on
    (determinism, cache-key completeness, pool safety) and fail every
    run; ``WARNING`` findings are hygiene debt that only fails
    ``--strict`` runs.
    """

    WARNING = "warning"
    ERROR = "error"

    @property
    def weight(self) -> int:
        """Ordering weight: errors sort before warnings."""
        return 0 if self is Severity.ERROR else 1


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        Repo-relative POSIX path of the offending file.
    line:
        1-based source line of the violation.
    rule:
        Rule identifier, e.g. ``"QA001"``.
    severity:
        :class:`Severity` of the violation.
    message:
        Human-readable description of what is wrong.  Messages name the
        offending symbol, so they stay stable under line drift.
    suggestion:
        Optional actionable fix, shown indented under the message.
    """

    path: str
    line: int
    rule: str = field(compare=False)
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    suggestion: str | None = field(default=None, compare=False)

    def render(self) -> str:
        """Single-line text rendering (plus an indented suggestion)."""
        text = f"{self.path}:{self.line}: {self.rule} {self.severity.value}: {self.message}"
        if self.suggestion:
            text += f"\n    hint: {self.suggestion}"
        return text

    def to_dict(self) -> dict:
        """JSON-serializable form for ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "suggestion": self.suggestion,
        }
