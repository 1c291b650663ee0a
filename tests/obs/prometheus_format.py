"""Line-format validator for the Prometheus text exposition format.

Shared by the tests of both writers that render through
:mod:`repro.obs.export`: the runtime registry's ``prometheus_text`` and
``HealthMonitor.prometheus``.
"""

from __future__ import annotations

import re

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
#: A label value may hold anything but a raw quote, backslash or
#: newline; those three appear only as the escapes \" \\ and \n.
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'

#: One metric sample:  name{optional labels} value
SAMPLE_RE = re.compile(
    rf"({_NAME})(\{{{_LABEL}(?:,{_LABEL})*\}})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?"
)
TYPE_RE = re.compile(rf"# TYPE ({_NAME}) (counter|gauge|summary)")


def validate_prometheus(text: str) -> None:
    """Assert ``text`` is a well-formed exposition.

    Every line is a ``# TYPE`` declaration (at most one per family) or
    a sample of an already-declared family (summaries may add
    ``_sum`` / ``_count``), and no series (name plus labels) repeats.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    declared: set[str] = set()
    series: set[str] = set()
    # Split on "\n" only: str.splitlines would also break on the other
    # Unicode line boundaries a label value may legally contain.
    for line in text[:-1].split("\n"):
        type_match = TYPE_RE.fullmatch(line)
        if type_match:
            family = type_match.group(1)
            assert family not in declared, f"duplicate TYPE for {family}"
            declared.add(family)
            continue
        sample = SAMPLE_RE.fullmatch(line)
        assert sample, f"malformed sample line: {line!r}"
        metric = sample.group(1)
        base = re.sub(r"_(sum|count)$", "", metric)
        assert metric in declared or base in declared, (
            f"sample {metric!r} has no preceding TYPE declaration"
        )
        key = line.rsplit(" ", 1)[0]
        assert key not in series, f"duplicate series {key!r}"
        series.add(key)
