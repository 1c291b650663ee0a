"""Batch-runtime demonstration CLI.

Simulates a small longitudinal study, screens it through
:class:`~repro.runtime.executor.BatchExecutor` twice — a cold pass that
pays the DSP and a warm pass served from the feature cache — and prints
the runtime metrics report::

    python -m repro.runtime --participants 4 --days 8 --workers 4
    python -m repro.runtime --participants 2 --days 2 --json
    python -m repro.runtime --cache-dir /tmp/earsonar-cache  # persistent
    python -m repro.runtime --trace-dir runs/demo            # full telemetry

``--trace-dir`` enables the observability layer: spans for every
pipeline stage and runtime step, a
:class:`~repro.obs.manifest.RunManifest`, and the Chrome-trace /
Prometheus exports — inspect them with ``python -m repro.obs``.

This is the smoke-test surface for CI and the reference example for
wiring the runtime into new workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from ..core.config import EarSonarConfig
from ..core.pipeline import EarSonarPipeline
from ..obs import Tracer, capture_manifest, use_tracer
from ..obs.export import write_run_record
from ..simulation.cohort import StudyDesign, build_cohort, simulate_study
from ..simulation.session import SessionConfig
from .cache import FeatureCache
from .executor import BatchExecutor
from .metrics import RuntimeMetrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Process a simulated study through the batch runtime.",
    )
    parser.add_argument("--participants", type=int, default=4, help="cohort size")
    parser.add_argument("--days", type=int, default=4, help="follow-up days")
    parser.add_argument(
        "--sessions-per-day", type=int, default=1, help="recordings per day"
    )
    parser.add_argument(
        "--duration", type=float, default=0.5, help="recording length in seconds"
    )
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--chunk-size", type=int, default=None, help="recordings per pool task"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="persist the feature cache on disk"
    )
    parser.add_argument("--seed", type=int, default=2023, help="simulation seed")
    parser.add_argument(
        "--no-warm-pass",
        action="store_true",
        help="skip the second (cache-warm) pass",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON on stdout"
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="enable tracing and write the run record (spans, manifest, "
        "Chrome trace, Prometheus text) to this directory",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    # Recovery trajectories need >= 8 days to cover all effusion states;
    # shorter demos simply record the first --days of a longer course.
    cohort = build_cohort(args.participants, rng, total_days=max(args.days, 8))
    design = StudyDesign(
        total_days=args.days,
        sessions_per_day=args.sessions_per_day,
        session_config=SessionConfig(duration_s=args.duration),
    )
    study = simulate_study(cohort, design, rng)

    config = EarSonarConfig()
    metrics = RuntimeMetrics()
    executor = BatchExecutor(
        EarSonarPipeline(config),
        workers=args.workers,
        chunk_size=args.chunk_size,
        cache=FeatureCache(directory=args.cache_dir),
        metrics=metrics,
    )

    tracer = Tracer() if args.trace_dir is not None else None
    passes = {}
    with use_tracer(tracer) if tracer is not None else contextlib.nullcontext():
        for name in ["cold"] if args.no_warm_pass else ["cold", "warm"]:
            t0 = time.perf_counter()
            result = executor.run(study.recordings)
            elapsed = time.perf_counter() - t0
            passes[name] = {
                "recordings": len(result),
                "ok": result.ok_count,
                "failed": result.failed_count,
                "seconds": round(elapsed, 3),
                "recordings_per_sec": round(len(result) / elapsed, 2) if elapsed else 0.0,
            }

    if tracer is not None:
        paths = write_run_record(
            args.trace_dir,
            spans=tracer.traces,
            metrics=metrics,
            manifest=capture_manifest(config=config, seed=args.seed, argv=argv),
        )
        print(f"trace written: {paths['record']}", file=sys.stderr)

    if args.json:
        print(json.dumps({"passes": passes, "metrics": metrics.report()}, indent=2))
        return 0

    print(
        f"study: {args.participants} participants x {args.days} days "
        f"x {args.sessions_per_day}/day ({len(study)} recordings, "
        f"{args.duration:.2f}s each), workers={args.workers}"
    )
    for name, stats in passes.items():
        print(
            f"{name:>5} pass: {stats['ok']} ok, {stats['failed']} quarantined, "
            f"{stats['seconds']:.2f}s ({stats['recordings_per_sec']:.1f} rec/s)"
        )
    print()
    print(metrics.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
