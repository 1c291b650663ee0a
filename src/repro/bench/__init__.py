"""Perf harness: whole-capture pipeline stages against their oracles.

``python -m repro.bench`` times each batched pipeline stage over one
seeded capture against the loop it replaced (parity against the
per-event ``segment_eardrum_echo`` loop, spectrum against per-echo
``absorption_curve``, the rake against the dense
``cancel_early_reflections`` loop) and writes ``BENCH_stages.json``;
``BENCH_obs.json`` holds a traced batch run against the untraced one.
Each record carries the op name, a human-readable shape string, p50/p95
wall-clock milliseconds for the batched path and for its oracle, and
the speedup, so successive commits can be compared file to file.  The
two sides of every pair are timed call by call, and the speedup is the
median of the per-pair ratios (see :func:`compare_ops`).

The harness lives outside the science subpackages on purpose: it is
allowed to read wall clocks, while :mod:`repro.kernels` itself stays
clock-free and deterministic under QA001.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "BenchResult",
    "compare_ops",
    "git_sha",
    "machine_fingerprint",
    "write_report",
]

#: Bumped whenever the JSON layout changes shape incompatibly.
#: v2: reports hold a ``runs`` list keyed by (git_sha, seed, quick,
#: machine) instead of a single clobber-on-write result set.
SCHEMA_VERSION = 2


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


def git_sha() -> str:
    """HEAD commit of the enclosing repo, or ``"unknown"`` outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if sha else "unknown"


def machine_fingerprint() -> str:
    """Short stable digest of the benchmarking host.

    Timings are only comparable on the same machine class, so every
    run/trajectory entry is stamped with a hash of the CPU architecture,
    OS, core count, and Python/NumPy versions; the regression gate only
    compares entries whose fingerprints match.
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


def _load_runs(path: Path) -> list[dict]:
    """Existing runs in ``path`` (empty for missing/unreadable)."""
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    runs = payload.get("runs", []) if isinstance(payload, dict) else []
    return runs if isinstance(runs, list) else []


def write_report(
    path: Path,
    results: list[BenchResult],
    *,
    label: str,
    quick: bool,
    seed: int,
    sha: str | None = None,
    machine: str | None = None,
    config_fingerprint: str | None = None,
) -> Path:
    """Record ``results`` in ``path`` without clobbering other commits.

    The report is multi-run: each run is keyed by ``(git_sha, seed,
    quick, machine)``.  Re-benchmarking the same commit on the same
    machine replaces that run in place; a run from a *different* commit
    is appended, never overwritten, so a report file accumulates the
    perf trajectory across the stacked PRs instead of erasing it on
    every invocation.
    """
    sha = sha if sha is not None else git_sha()
    machine = machine if machine is not None else machine_fingerprint()
    run = {
        "git_sha": sha,
        "seed": seed,
        "quick": quick,
        "machine": machine,
        "config_fingerprint": config_fingerprint,
        "results": [asdict(r) for r in results],
    }
    key = (sha, seed, quick, machine)
    runs = _load_runs(path)
    for i, existing in enumerate(runs):
        if (
            existing.get("git_sha"),
            existing.get("seed"),
            existing.get("quick"),
            existing.get("machine"),
        ) == key:
            runs[i] = run
            break
    else:
        runs.append(run)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "runs": runs,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
