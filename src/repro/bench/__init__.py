"""Perf harness: whole-capture pipeline stages against their oracles.

``python -m repro.bench`` times each batched pipeline stage over one
seeded capture against the loop it replaced (the band-pass against the
pure-Python ``sosfilt_reference`` recurrence, events against the
per-sample ``detect_events_reference`` loop, parity against the
per-event ``segment_eardrum_echo`` loop, spectrum against per-echo
``absorption_curve``, the rake against the dense
``cancel_early_reflections`` loop) and writes ``BENCH_stages.json``;
``BENCH_obs.json`` holds a traced batch run against the untraced one.
Each record carries the op name, a human-readable shape string, p50/p95
wall-clock milliseconds for the batched path and for its oracle, and
the speedup.  The two sides of every pair are timed call by call, and
the speedup is the median of the per-pair ratios (see
:func:`compare_ops`).

A report holds one run.  The regression gate (:func:`check_gate`)
compares it with the base commit's report of the same name from the
same host: an op fails only when its p50 rose *and* its speedup fell.
Raw p50s follow CPU frequency scaling and noisy neighbours — on a
2-vCPU VM a sub-millisecond op swings 1.25–1.65× between two runs of
one commit — while a slower batched path also lowers its speedup over
the unchanged oracle it is timed against.

The harness lives outside the science subpackages on purpose: it is
allowed to read wall clocks, while :mod:`repro.kernels` itself stays
clock-free and deterministic under QA001.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..obs.manifest import git_revision

__all__ = [
    "SCHEMA_VERSION",
    "GATE_TOLERANCE",
    "BenchResult",
    "Regression",
    "check_gate",
    "compare_ops",
    "load_report",
    "machine_fingerprint",
    "write_report",
]

#: Bumped whenever the JSON layout changes shape incompatibly.  v3: a
#: report holds one run's stamp and results, not a ``runs`` list.
SCHEMA_VERSION = 3

#: An op fails the gate when its p50 rose and its speedup fell, each by
#: more than this fraction.
GATE_TOLERANCE = 0.20


@dataclass(frozen=True)
class BenchResult:
    """Timing record for one op: the batched path against its oracle.

    All times are wall-clock milliseconds over ``repeats`` calls after
    one untimed warmup; ``speedup`` is the median over the ``repeats``
    rounds of ``serial_i / batched_i``, not ``serial_p50_ms / p50_ms``.
    """

    op: str
    shape: str
    repeats: int
    p50_ms: float
    p95_ms: float
    serial_p50_ms: float
    serial_p95_ms: float
    speedup: float


def compare_ops(
    op: str,
    shape: str,
    batched: Callable[[], Any],
    serial: Callable[[], Any],
    *,
    repeats: int,
) -> BenchResult:
    """Time ``batched`` against ``serial`` call by call and build the record.

    After one untimed warmup of each side (plan-cache population and
    allocator churn), every round times one ``batched`` call and then
    one ``serial`` call.  Timing each side as one contiguous block lets
    clock drift (frequency scaling, a noisy neighbour) land wholesale
    on whichever side ran second; alternating puts both calls of a
    round under the same drift.  The ``speedup`` the gate reads is the
    median of the per-round ratios, so drift that slows a whole round
    cancels inside its ratio, where a ratio of the two p50s would
    compare calls from different rounds: over 20 ``--quick`` runs on a
    2-vCPU VM the traced batch's overhead read from the p50s spread
    −7.7…+14.7% (quartiles 0.0/+3.2%), and from per-round ratios
    −1.8…+9.6% (quartiles +0.8/+2.6%).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    batched()
    serial()
    samples = np.empty((2, repeats))
    for i in range(repeats):
        for side, fn in enumerate((batched, serial)):
            t0 = time.perf_counter()
            fn()
            samples[side, i] = (time.perf_counter() - t0) * 1e3
    (p50, s50), (p95, s95) = np.percentile(samples, [50, 95], axis=1)
    return BenchResult(
        op=op,
        shape=shape,
        repeats=repeats,
        p50_ms=float(p50),
        p95_ms=float(p95),
        serial_p50_ms=float(s50),
        serial_p95_ms=float(s95),
        speedup=float(np.median(samples[1] / samples[0])),
    )


def machine_fingerprint() -> str:
    """Short stable digest of the benchmarking host.

    Timings are only comparable on the same machine class, so every
    report is stamped with a hash of the CPU architecture, OS, core
    count, and Python/NumPy versions; the regression gate only compares
    reports whose fingerprints match.
    """
    identity = "|".join(
        (
            platform.machine(),
            platform.system(),
            str(os.cpu_count() or 0),
            platform.python_version(),
            np.__version__,
        )
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]


def write_report(
    path: Path,
    results: list[BenchResult],
    *,
    label: str,
    quick: bool,
    seed: int,
    config_fingerprint: str | None = None,
) -> dict:
    """Write one run's ``results`` to ``path`` and return the payload.

    A report holds exactly one run, stamped with the commit, seed,
    problem-size class, host and config it was measured under; a rerun
    overwrites it; :func:`check_gate` compares two such reports.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "git_sha": git_revision() or "unknown",
        "seed": seed,
        "quick": quick,
        "machine": machine_fingerprint(),
        "config_fingerprint": config_fingerprint,
        "results": [asdict(r) for r in results],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def load_report(path: Path) -> dict | None:
    """The payload of the report at ``path``; ``None`` if missing or unreadable."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


@dataclass(frozen=True)
class Regression:
    """One op that slowed past the gate tolerance on both signals."""

    op: str
    baseline_p50_ms: float
    current_p50_ms: float
    baseline_speedup: float
    current_speedup: float


def check_gate(current: dict, base: dict | None) -> tuple[list[Regression], str]:
    """Compare a report's ops against the base commit's report of the same name.

    An op regresses only when both signals cross :data:`GATE_TOLERANCE`:
    its p50 rose by more than it *and* its in-run speedup fell by more
    than it.  A p50 rise with a steady speedup is machine noise — both
    sides of the pair slowed together — not a kernel regression.

    Returns ``(regressions, explanation)``.  A missing base, or one with
    another schema, machine fingerprint or ``quick`` class, compares
    nothing and says why; ops present in only one report are skipped,
    so adding or retiring an op is not a regression.
    """
    if base is None:
        return [], "no base report: nothing compared"
    for key, what in (
        ("schema_version", "schema"),
        ("machine", "machine fingerprint"),
        ("quick", "quick class"),
    ):
        if base.get(key) != current.get(key):
            return [], (
                f"base {what} {base.get(key)!r} differs from "
                f"{current.get(key)!r}: nothing compared"
            )
    base_ops = {r["op"]: r for r in base.get("results", [])}
    shared = [(base_ops[r["op"]], r) for r in current["results"] if r["op"] in base_ops]
    regressions = [
        Regression(new["op"], old["p50_ms"], new["p50_ms"], old["speedup"], new["speedup"])
        for old, new in shared
        if new["p50_ms"] > old["p50_ms"] * (1.0 + GATE_TOLERANCE)
        and new["speedup"] < old["speedup"] * (1.0 - GATE_TOLERANCE)
    ]
    sha = str(base.get("git_sha", "?"))[:12]
    return regressions, (
        f"compared {len(shared)} op(s) against {sha} at {GATE_TOLERANCE:.0%} tolerance"
    )
