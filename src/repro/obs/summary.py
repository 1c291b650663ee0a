"""Trace analysis: per-stage percentiles, critical paths, and run diffs.

Pure functions over the span forest of a run record.  Everything here
consumes the output of :func:`repro.obs.export.load_run_record` and
returns plain data (or render-ready text), so the ``python -m
repro.obs`` CLI stays a thin argument parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import names
from .tracer import Span

__all__ = [
    "StageStats",
    "stage_stats",
    "slowest_recordings",
    "critical_path",
    "render_tree",
    "diff_stages",
    "render_stage_table",
    "render_diff",
]


@dataclass(frozen=True)
class StageStats:
    """Latency digest of every span sharing one name across a run."""

    name: str
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float


def _percentile_digest(name: str, durations: list[float]) -> StageStats:
    data = np.asarray(durations)
    p50, p95, p99 = np.percentile(data, [50.0, 95.0, 99.0])
    return StageStats(
        name=name,
        count=int(data.size),
        mean_ms=float(data.mean()),
        p50_ms=float(p50),
        p95_ms=float(p95),
        p99_ms=float(p99),
        max_ms=float(data.max()),
    )


def stage_stats(spans: Iterable[Span]) -> dict[str, StageStats]:
    """Aggregate span durations by span name over the whole forest."""
    by_name: dict[str, list[float]] = {}
    for root in spans:
        for span in root.walk():
            by_name.setdefault(span.name, []).append(span.duration_ms)
    return {
        name: _percentile_digest(name, durations)
        for name, durations in sorted(by_name.items())
    }


def slowest_recordings(spans: Iterable[Span], top: int = 10) -> list[dict]:
    """The ``top`` recording traces by total duration, slowest first.

    Each entry carries the recording's provenance and outcome.
    """
    roots = [s for s in spans if s.name == names.SPAN_RECORDING]
    roots.sort(key=lambda s: s.duration_ms, reverse=True)
    return [
        {
            "index": root.attrs.get("index"),
            "participant": root.attrs.get("participant", ""),
            "day": root.attrs.get("day"),
            "duration_ms": root.duration_ms,
            "outcome": root.attrs.get("outcome", ""),
        }
        for root in roots[: max(0, top)]
    ]


def critical_path(root: Span) -> list[Span]:
    """The chain of longest children from ``root`` down to a leaf.

    The classic flamegraph reading aid: at every level, descend into
    the child that consumed the most wall time.  The returned list
    starts at ``root``.
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda child: child.duration_ms)
        path.append(node)
    return path


def render_tree(root: Span, *, highlight_critical: bool = True) -> str:
    """ASCII rendering of one span tree, critical path marked with ``*``."""
    critical = set(map(id, critical_path(root))) if highlight_critical else set()
    lines: list[str] = []

    def visit(span: Span, depth: int) -> None:
        marker = "*" if id(span) in critical else " "
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attrs.items())
        )
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(
            f"{marker} {'  ' * depth}{span.name:<{max(1, 24 - 2 * depth)}} "
            f"{span.duration_ms:9.3f} ms{suffix}"
        )
        for child in span.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def diff_stages(
    before: dict[str, StageStats], after: dict[str, StageStats]
) -> list[dict]:
    """Per-stage p50 deltas between two runs, sorted by regression.

    Positive ``delta_pct`` means ``after`` is slower.  Stages present
    in only one run are included with ``None`` on the missing side.
    """
    rows: list[dict] = []
    for name in sorted(set(before) | set(after)):
        a = before.get(name)
        b = after.get(name)
        delta_pct: float | None = None
        if a is not None and b is not None and a.p50_ms > 0.0:
            delta_pct = (b.p50_ms / a.p50_ms - 1.0) * 100.0
        rows.append(
            {
                "stage": name,
                "before_p50_ms": a.p50_ms if a else None,
                "after_p50_ms": b.p50_ms if b else None,
                "delta_pct": delta_pct,
            }
        )
    rows.sort(key=lambda r: -(r["delta_pct"] if r["delta_pct"] is not None else -1e18))
    return rows


def render_stage_table(stats: dict[str, StageStats]) -> str:
    """Aligned text table of per-stage percentiles."""
    header = (
        f"{'span':<22}{'count':>7}{'mean ms':>10}{'p50 ms':>10}"
        f"{'p95 ms':>10}{'p99 ms':>10}{'max ms':>10}"
    )
    lines = [header, "-" * len(header)]
    for name in sorted(stats):
        s = stats[name]
        lines.append(
            f"{s.name:<22}{s.count:>7}{s.mean_ms:>10.3f}{s.p50_ms:>10.3f}"
            f"{s.p95_ms:>10.3f}{s.p99_ms:>10.3f}{s.max_ms:>10.3f}"
        )
    return "\n".join(lines)


def render_diff(rows: list[dict]) -> str:
    """Aligned text table of a :func:`diff_stages` result."""
    header = f"{'span':<22}{'before p50':>12}{'after p50':>12}{'delta':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        before = f"{row['before_p50_ms']:.3f}" if row["before_p50_ms"] is not None else "-"
        after = f"{row['after_p50_ms']:.3f}" if row["after_p50_ms"] is not None else "-"
        delta = f"{row['delta_pct']:+.1f}%" if row["delta_pct"] is not None else "-"
        lines.append(f"{row['stage']:<22}{before:>12}{after:>12}{delta:>9}")
    return "\n".join(lines)
