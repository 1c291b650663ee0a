"""Append-only perf trajectory and its regression gate.

A trajectory file is a machine-readable history of stage performance
across commits: one entry per benchmark invocation, stamped with the
git SHA, seed, and machine fingerprint, holding per-op p50/p95/speedup
numbers.  Entries are *appended*, never rewritten, so a regression is
visible as two adjacent entries, not as a silently replaced number.
CI's bench-gate starts a scratch file on its runner with the base
commit's entry and appends the head's; timings from another machine
are never compared, so no trajectory is committed.

:func:`check_gate` implements the CI bench-gate: the newest entry is
compared against the most recent *prior* entry from the same machine
fingerprint and problem-size class (``quick``), and an op fails the
gate when **both** regression signals agree: its p50 slowed beyond the
noise tolerance *and* its in-run speedup (batched vs its oracle, timed
call by call so both sides share the host's load) dropped beyond the
same tolerance.  Raw p50s are hostage to CPU frequency scaling and
noisy neighbours — on a 2-vCPU VM a sub-millisecond op swings
1.25–1.65× between two runs of one commit — while a slowdown of the
batched path moves both numbers, because the oracle it is measured
against did not change.  The speedup is not noise-free either, so the
gate filters for large, repeatable slowdowns rather than proving each
trip a regression.  Cross-machine entries are never compared — a
laptop following a CI runner in the file is history, not a
regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import BenchResult, git_sha, machine_fingerprint

__all__ = [
    "TRAJECTORY_SCHEMA_VERSION",
    "Regression",
    "append_entry",
    "load_entries",
    "check_gate",
]

TRAJECTORY_SCHEMA_VERSION = 1

#: Default slowdown tolerance of the gate: p50 may drift up to 20%
#: before the gate fails, absorbing shared-runner timing noise.
DEFAULT_TOLERANCE = 0.20


@dataclass(frozen=True)
class Regression:
    """One op that slowed past the gate tolerance on both signals."""

    op: str
    baseline_p50_ms: float
    current_p50_ms: float
    baseline_speedup: float
    current_speedup: float

    @property
    def ratio(self) -> float:
        """Slowdown factor (current / baseline); > 1 is slower."""
        if self.baseline_p50_ms <= 0.0:
            return float("inf")
        return self.current_p50_ms / self.baseline_p50_ms


def load_entries(path: Path) -> list[dict]:
    """Entries of a trajectory file (empty for missing/unreadable)."""
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    entries = payload.get("entries", []) if isinstance(payload, dict) else []
    return entries if isinstance(entries, list) else []


def append_entry(
    path: Path,
    results: list[BenchResult],
    *,
    seed: int,
    quick: bool,
    sha: str | None = None,
    machine: str | None = None,
) -> dict:
    """Append one trajectory entry summarising ``results`` to ``path``.

    Returns the entry appended.  Ops are keyed by their record name;
    callers merging several suites into one entry must namespace the
    op names (the CLI uses an ``obs.*`` prefix).
    """
    entry = {
        "git_sha": sha if sha is not None else git_sha(),
        "seed": seed,
        "quick": quick,
        "machine": machine if machine is not None else machine_fingerprint(),
        "ops": {
            r.op: {
                "p50_ms": r.p50_ms,
                "p95_ms": r.p95_ms,
                "speedup": r.speedup,
            }
            for r in results
        },
    }
    entries = load_entries(path)
    entries.append(entry)
    payload = {"schema_version": TRAJECTORY_SCHEMA_VERSION, "entries": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return entry


def check_gate(
    path: Path, *, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[list[Regression], str]:
    """Compare the newest entry against its same-machine predecessor.

    An op regresses only when both signals cross ``tolerance``: p50
    slowed by more than it *and* the in-run speedup dropped by more
    than it.  A p50 rise with a stable speedup is machine noise — both
    lanes of the pair slowed together — not a kernel regression.

    Returns ``(regressions, explanation)``; an empty regression list
    with a descriptive message means the gate passes (including the
    vacuous cases: fewer than two comparable entries, or no shared
    ops).  Ops present in only one of the two entries are skipped —
    adding or retiring a benchmark is not a regression.
    """
    entries = load_entries(path)
    if not entries:
        return [], f"no trajectory entries in {path}"
    current = entries[-1]
    baseline = next(
        (
            e
            for e in reversed(entries[:-1])
            if e.get("machine") == current.get("machine")
            and e.get("quick") == current.get("quick")
        ),
        None,
    )
    if baseline is None:
        return [], "no prior same-machine entry to compare against"
    regressions: list[Regression] = []
    shared = 0
    for op, stats in current.get("ops", {}).items():
        base = baseline.get("ops", {}).get(op)
        if base is None:
            continue
        shared += 1
        base_p50 = float(base.get("p50_ms", 0.0))
        cur_p50 = float(stats.get("p50_ms", 0.0))
        if not (base_p50 > 0.0 and cur_p50 > base_p50 * (1.0 + tolerance)):
            continue
        base_speedup = float(base["speedup"])
        cur_speedup = float(stats["speedup"])
        if cur_speedup >= base_speedup * (1.0 - tolerance):
            continue  # speedup held up: the pair slowed together (noise)
        regressions.append(
            Regression(
                op=op,
                baseline_p50_ms=base_p50,
                current_p50_ms=cur_p50,
                baseline_speedup=base_speedup,
                current_speedup=cur_speedup,
            )
        )
    message = (
        f"compared {shared} op(s) against {baseline.get('git_sha', '?')[:12]} "
        f"at {tolerance:.0%} tolerance"
    )
    return regressions, message
