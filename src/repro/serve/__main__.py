"""Serving front end and load generator for ``repro.serve``.

Two subcommands::

    # Screen request specs from stdin (JSONL), one response line each:
    echo '{"tenant": "clinic-a", "seed": 7, "day": 0.5}' \\
        | python -m repro.serve serve

    # Watch a spool directory instead of stdin:
    python -m repro.serve serve --watch /tmp/earsonar-spool --max-files 10

    # Seeded synthetic load (open-loop arrivals, tenant mix) with a
    # latency/throughput report:
    python -m repro.serve loadgen --requests 48 --tenants 3 --rate 200 \\
        --report report.json
    python -m repro.serve loadgen --chaos --workers 2   # injected faults

A spec that is not a JSON object, or whose ``seed``/``day``/
``duration_s`` do not convert, is answered like invalid JSON: with an
``{"error", "message"}`` record (a stdout line, or the spool file's
``.result.json``), and the server keeps serving.  ``--cache-dir DIR``
keeps the feature cache on disk, so a second run over the same
captures is answered from the cache.

The load generator runs on a :class:`~repro.serve.clock.VirtualClock`
by default — the full arrival schedule, batching, backpressure, and
fairness play out deterministically in simulated time, so CI soak runs
are reproducible and fast; ``--real-clock`` switches to wall time for
measuring actual service latencies.  On the virtual clock each batch
is charged a modelled compute cost (:func:`_modeled_runner`), so
virtual latencies include the DSP a batch would take.  Recordings are
synthesized from the seeded simulation layer; every stochastic choice
flows from ``--seed``.  Each request's latency runs from its scheduled
arrival, so time an arrival spends waiting for the event loop counts.
A non-finite or non-positive ``--rate`` or ``--duration``, a
``--requests``, ``--pool`` or ``--tenants`` below 1, or a negative
``--seed`` is refused with a :class:`~repro.errors.ConfigurationError`
before the service is built, and so is a non-finite or non-positive
``serve --poll-s``.  Either command refuses a ``--workers``,
``--max-batch-size`` or ``--max-queue-depth`` below 1, a non-finite or
non-positive ``--health-interval-s`` and, with health on, such a
``--slo-latency-ms`` before it makes the ``--cache-dir`` directory or
any health file.

The report counts every request exactly once: ``responded`` (answered
with a screening outcome, processed or quarantined), ``rejected``
(typed admission backpressure, by reason), and ``lost`` (neither — the
invariant the soak job asserts is ``lost == 0``).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..core.pipeline import EarSonarPipeline
from ..errors import AdmissionRejected, ConfigurationError, EarSonarError, ServiceError
from ..obs import names as obs_names
from ..obs.health import LATENCY_SLO_MS, SERIES_LABELS, HealthMonitor, use_health
from ..quality import QualityConfig
from ..runtime.cache import FeatureCache
from ..runtime.chaos import FaultInjector
from ..runtime.executor import BatchExecutor, BatchResult
from ..runtime.metrics import RuntimeMetrics
from ..simulation.participant import sample_participant
from ..simulation.session import Recording, SessionConfig, record_session
from .clock import Clock, MonotonicClock, VirtualClock
from .service import BatchRunner, ScreeningRequest, ScreeningResponse, ScreeningService

#: Modelled cost of one batch on the virtual clock:
#: ``VIRTUAL_BATCH_FIXED_S + VIRTUAL_CAPTURE_S * ceil(n / workers)``.
#: Least squares over open-pool batch timings of the load generator's
#: 0.1 s captures (1, 2, 4 and 8 captures on 1 and 2 workers, 2-vCPU
#: host) read 3.0–8.2 ms fixed and 5.4–5.6 ms per capture.
VIRTUAL_BATCH_FIXED_S = 0.005
VIRTUAL_CAPTURE_S = 0.0055


def _synthesize(
    seed: int, day: float, duration_s: float, participant_id: str | None = None
) -> Recording:
    """One seeded recording: participant anatomy and capture from ``seed``."""
    rng = np.random.default_rng(seed)
    participant = sample_participant(rng, participant_id or f"P{seed % 1000:03d}")
    return record_session(
        participant, day, SessionConfig(duration_s=duration_s), rng
    )


def _build_health(
    args: argparse.Namespace, clock: Clock
) -> tuple[HealthMonitor | None, Callable[[dict], None] | None]:
    """Fleet-health monitor + snapshot sink from the CLI flags.

    Returns ``(None, None)`` unless ``--health-interval-s`` opted in,
    keeping the default serve/loadgen paths on the null monitor and
    bit-identical to a health-free build.
    """
    if args.health_interval_s is None:
        return None, None
    series = tuple(SERIES_LABELS)
    if isinstance(clock, VirtualClock):
        # Stage latencies are wall-clock measurements; dropping that
        # series keeps virtual-clock trajectories bit-identical across
        # replays.  Every other series is a function of the seed.
        series = tuple(name for name in series if name != obs_names.HEALTH_RECORDING_MS)
    # Built before the file is made: the monitor refuses a bad threshold.
    monitor = HealthMonitor(
        now=clock.now, latency_slo_ms=args.slo_latency_ms, series=series
    )
    sink = None
    if args.health_out is not None:
        out = Path(args.health_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("")  # truncate: one trajectory per run

        def sink(snapshot: dict) -> None:
            with open(out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(snapshot, sort_keys=True) + "\n")

    return monitor, sink


def _modeled_runner(executor: BatchExecutor, clock: VirtualClock) -> BatchRunner:
    """``executor.run``, then a :meth:`VirtualClock.tick` of the batch's
    modelled cost, so virtual latencies carry compute time.

    The cost depends only on the batch size and the worker count, never
    on wall time, so a virtual-clock soak stays a pure function of its
    seed.
    """

    def run(recordings: list[Recording]) -> BatchResult:
        try:
            return executor.run(recordings)
        finally:
            rounds = math.ceil(len(recordings) / executor.workers)
            clock.tick(VIRTUAL_BATCH_FIXED_S + VIRTUAL_CAPTURE_S * rounds)

    return run


def _flag_value(args: argparse.Namespace, flag: str) -> Any:
    return getattr(args, flag.lstrip("-").replace("-", "_"))


def _refuse_counts_below_one(args: argparse.Namespace, *flags: str) -> None:
    """Raise :class:`ConfigurationError` for the first of ``flags`` below 1."""
    for flag in flags:
        count = _flag_value(args, flag)
        if count < 1:
            raise ConfigurationError(f"{flag} must be >= 1, got {count}")


def _refuse_non_positive(args: argparse.Namespace, *flags: str) -> None:
    """Raise :class:`ConfigurationError` for the first of ``flags`` that is
    set but not positive and finite."""
    for flag in flags:
        value = _flag_value(args, flag)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigurationError(f"{flag} must be positive and finite, got {value}")


def _build_service(
    args: argparse.Namespace,
    clock: Clock,
    health_sink: Callable[[dict], None] | None = None,
) -> ScreeningService:
    """Executor + service wired from the shared CLI flags."""
    metrics = RuntimeMetrics()
    workers = args.workers
    fault_injector = None
    if getattr(args, "chaos", False):
        # Injected faults arm only in the pool path; force it on.
        workers = max(2, workers)
        fault_injector = FaultInjector(mode="error", indices=(0,))
    executor = BatchExecutor(
        EarSonarPipeline(),
        workers=workers,
        cache=FeatureCache(directory=args.cache_dir),
        metrics=metrics,
        fault_injector=fault_injector,
    )
    return ScreeningService(
        executor,
        clock=clock,
        max_queue_depth=args.max_queue_depth,
        max_batch_size=args.max_batch_size,
        fast_reject=QualityConfig() if args.fast_reject else None,
        runner=(
            _modeled_runner(executor, clock)
            if isinstance(clock, VirtualClock)
            else None
        ),
        health_interval_s=args.health_interval_s,
        health_sink=health_sink,
    )


def _response_line(response: ScreeningResponse) -> dict:
    """JSON-safe summary of one service response."""
    line = {
        "request_id": response.request_id,
        "tenant": response.tenant,
        "verdict": response.verdict,
        "ok": response.ok,
        "batch": response.batch,
        "queue_ms": round(response.queue_ms, 3),
        "batch_ms": round(response.batch_ms, 3),
    }
    if response.ok:
        line["confidence"] = round(float(response.confidence or 0.0), 4)
    else:
        line["error"] = response.outcome.reason  # type: ignore[union-attr]
    return line


# ---------------------------------------------------------------------------
# serve: JSONL stdin / directory watcher
# ---------------------------------------------------------------------------


def _request_from_spec(
    text: str | bytes, index: int, duration_s: float
) -> ScreeningRequest:
    """Parse one JSON request spec and synthesize its recording.

    Raises ``ValueError`` (``json.JSONDecodeError`` included),
    ``TypeError`` or ``OverflowError`` for text that is not a JSON
    object or whose fields do not convert, and
    :class:`~repro.errors.EarSonarError` for values the simulation
    refuses.
    """
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise TypeError(
            f"a request spec is a JSON object, not {type(spec).__name__}"
        )
    participant_id = spec.get("participant_id")
    recording = _synthesize(
        int(spec.get("seed", index)),
        float(spec.get("day", 0.5)),
        float(spec.get("duration_s", duration_s)),
        None if participant_id is None else str(participant_id),
    )
    return ScreeningRequest(
        request_id=str(spec.get("request_id", f"req-{index:05d}")),
        tenant=str(spec.get("tenant", "default")),
        recording=recording,
    )


async def _answer(
    service: ScreeningService, text: str | bytes, index: int, duration_s: float
) -> tuple[dict, bool]:
    """Screen one spec: ``(line, answered)``.

    A bad spec or a refused request is answered with an
    ``{"error", "message"}`` record and ``answered=False``, so one bad
    line never stops the server.
    """
    try:
        request = _request_from_spec(text, index, duration_s)
    except (ValueError, TypeError, OverflowError, EarSonarError) as exc:
        return _error_line(exc), False
    try:
        # Service submission, not pool dispatch.
        response = await service.submit(request)  # qa: ignore[QA003]
    except EarSonarError as exc:
        return _error_line(exc), False
    return _response_line(response), True


def _error_line(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


async def _serve_stdin(service: ScreeningService, args: argparse.Namespace) -> int:
    await service.start()
    failures = 0
    try:
        for index, line in enumerate(sys.stdin):
            line = line.strip()
            if not line:
                continue
            answer, answered = await _answer(service, line, index, args.duration)
            failures += not answered
            print(json.dumps(answer))
    finally:
        await service.stop()
    return 1 if failures else 0


async def _serve_watch(service: ScreeningService, args: argparse.Namespace) -> int:
    """Poll a spool directory: one JSON spec per file, result alongside."""
    spool = Path(args.watch)
    spool.mkdir(parents=True, exist_ok=True)
    await service.start()
    handled = 0
    try:
        while args.max_files is None or handled < args.max_files:
            pending = sorted(spool.glob("*.json"))
            pending = [p for p in pending if not p.name.endswith(".result.json")]
            if not pending:
                await service.clock.sleep(args.poll_s)
                continue
            for path in pending:
                line, _ = await _answer(
                    service, path.read_bytes(), handled, args.duration
                )
                path.with_suffix(".result.json").write_text(json.dumps(line))
                path.unlink(missing_ok=True)
                handled += 1
                if args.max_files is not None and handled >= args.max_files:
                    break
    finally:
        await service.stop()
    return 0


# ---------------------------------------------------------------------------
# loadgen: seeded open-loop synthetic traffic
# ---------------------------------------------------------------------------


async def _run_loadgen(args: argparse.Namespace) -> dict:
    _refuse_non_positive(args, "--rate", "--duration")
    _refuse_counts_below_one(args, "--requests", "--pool", "--tenants")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    clock: Clock = MonotonicClock() if args.real_clock else VirtualClock()
    health, file_sink = _build_health(args, clock)
    snapshots_written = 0
    health_sink: Callable[[dict], None] | None = None
    if health is not None:

        def health_sink(snapshot: dict) -> None:
            nonlocal snapshots_written
            snapshots_written += 1
            if file_sink is not None:
                file_sink(snapshot)

    service = _build_service(args, clock, health_sink)
    rng = np.random.default_rng(args.seed)

    # A small pool of distinct synthesized captures, reused across
    # requests so loadgen cost is dominated by serving, not synthesis.
    pool = [
        _synthesize(args.seed + i, float(rng.uniform(0.0, 20.0)), args.duration)
        for i in range(args.pool)
    ]
    tenants = [f"tenant-{i}" for i in range(args.tenants)]

    # Open-loop schedule: exponential inter-arrivals at --rate req/s,
    # tenant and capture drawn per request — all from the one seed.
    offsets: list[float] = []
    at = 0.0
    for _ in range(args.requests):
        at += float(rng.exponential(1.0 / args.rate))
        offsets.append(at)
    choices = [
        (str(rng.choice(tenants)), int(rng.integers(0, len(pool))))
        for _ in range(args.requests)
    ]

    responded: list[ScreeningResponse] = []
    latencies_ms: list[float] = []
    rejected: dict[str, int] = {}
    per_tenant: dict[str, dict[str, int]] = {
        tenant: {"submitted": 0, "responded": 0, "rejected": 0} for tenant in tenants
    }

    async def one(index: int) -> None:
        # Latency runs from the scheduled arrival, not from when this
        # coroutine resumes: an arrival due while a batch holds the
        # event loop waits for it too (no coordinated omission).
        due = t0 + offsets[index]
        await clock.sleep(due - clock.now())
        tenant, pick = choices[index]
        per_tenant[tenant]["submitted"] += 1
        try:
            response = await service.submit(
                ScreeningRequest(f"req-{index:05d}", tenant, pool[pick])
            )
        except AdmissionRejected as rejection:
            rejected[rejection.reason] = rejected.get(rejection.reason, 0) + 1
            per_tenant[tenant]["rejected"] += 1
            return
        except ServiceError:
            rejected["shutdown"] = rejected.get("shutdown", 0) + 1
            per_tenant[tenant]["rejected"] += 1
            return
        responded.append(response)
        latencies_ms.append((clock.now() - due) * 1e3)
        per_tenant[tenant]["responded"] += 1

    # The monitor must be ambient before the dispatch task and the
    # request tasks are created (each task snapshots the contextvars).
    health_scope = (
        use_health(health) if health is not None else contextlib.nullcontext()
    )
    with health_scope:
        await service.start()
        t0 = clock.now()
        tasks = [asyncio.ensure_future(one(i)) for i in range(args.requests)]
        if isinstance(clock, VirtualClock):
            horizon = offsets[-1] + 60.0
            step = 1.0 / args.rate
            await clock.advance_until(
                lambda: all(task.done() for task in tasks),
                step=step,
                max_steps=int(horizon / step) + 10_000,
            )
        await asyncio.gather(*tasks)
        await service.stop()
        if health is not None and args.health_prom is not None:
            prom = Path(args.health_prom)
            prom.parent.mkdir(parents=True, exist_ok=True)
            prom.write_text(health.prometheus(clock.now()))

    total_rejected = sum(rejected.values())
    lost = args.requests - len(responded) - total_rejected
    quarantined = sum(1 for r in responded if not r.ok)
    latency = {}
    if latencies_ms:
        data = np.asarray(latencies_ms)
        latency = {
            "p50": float(np.percentile(data, 50.0)),
            "p95": float(np.percentile(data, 95.0)),
            "p99": float(np.percentile(data, 99.0)),
            "max": float(data.max()),
        }
    metrics = service.metrics.report()
    report: dict = {}
    if health is not None:
        report["health"] = {
            "snapshots": snapshots_written,
            "alerts_active": health.active_alerts(),
            "transitions": health.transitions,
        }
    return report | {
        "clock": "real" if args.real_clock else "virtual",
        "seed": args.seed,
        "requests": args.requests,
        "responded": len(responded),
        "ok": len(responded) - quarantined,
        "quarantined": quarantined,
        "rejected": rejected,
        "lost": lost,
        "latency_ms": latency,
        "per_tenant": per_tenant,
        "workers_final": service.executor.workers,
        "batches": metrics["counters"].get("serve.batches.dispatched", 0),
        "counters": metrics["counters"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Online screening service front end and load generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _shared(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--workers", type=int, default=1, help="worker processes")
        cmd.add_argument(
            "--max-batch-size", type=int, default=8, help="micro-batch size cap"
        )
        cmd.add_argument(
            "--max-queue-depth", type=int, default=256, help="admission queue cap"
        )
        cmd.add_argument(
            "--fast-reject",
            action="store_true",
            help="run the quality gate before admission",
        )
        cmd.add_argument(
            "--cache-dir",
            default=None,
            help="persist the feature cache in this directory (reused "
            "across runs and safe to share between processes)",
        )
        cmd.add_argument(
            "--duration",
            type=float,
            default=0.1,
            help="synthesized recording length in seconds",
        )
        cmd.add_argument(
            "--health-interval-s",
            type=float,
            default=None,
            help="enable fleet-health monitoring; snapshot at most once "
            "per this many (virtual) seconds between batches",
        )
        cmd.add_argument(
            "--health-out",
            default=None,
            help="append each full health snapshot to this JSONL file "
            "(render with: python -m repro.obs health <file>)",
        )
        cmd.add_argument(
            "--health-prom",
            default=None,
            help="write a final Prometheus textfile of the health rollups",
        )
        cmd.add_argument(
            "--slo-latency-ms",
            type=float,
            default=LATENCY_SLO_MS,
            help=f"latency SLO threshold (default {LATENCY_SLO_MS:g} ms)",
        )

    serve_cmd = sub.add_parser("serve", help="answer screening requests")
    _shared(serve_cmd)
    serve_cmd.add_argument(
        "--watch",
        default=None,
        help="poll this spool directory for *.json request specs "
        "(default: read JSONL specs from stdin)",
    )
    serve_cmd.add_argument(
        "--poll-s", type=float, default=0.2, help="spool poll interval"
    )
    serve_cmd.add_argument(
        "--max-files",
        type=int,
        default=None,
        help="stop after handling this many spool files",
    )

    load_cmd = sub.add_parser("loadgen", help="seeded synthetic load")
    _shared(load_cmd)
    load_cmd.add_argument("--requests", type=int, default=48, help="request count")
    load_cmd.add_argument("--tenants", type=int, default=3, help="tenant count")
    load_cmd.add_argument(
        "--rate", type=float, default=200.0, help="aggregate arrival rate (req/s)"
    )
    load_cmd.add_argument("--seed", type=int, default=2023, help="loadgen seed")
    load_cmd.add_argument(
        "--pool", type=int, default=8, help="distinct synthesized captures"
    )
    load_cmd.add_argument(
        "--chaos",
        action="store_true",
        help="inject worker faults (error mode, first index of each batch)",
    )
    load_cmd.add_argument(
        "--real-clock",
        action="store_true",
        help="run on wall time instead of the deterministic virtual clock",
    )
    load_cmd.add_argument(
        "--report", default=None, help="write the JSON report to this path"
    )

    args = parser.parse_args(argv)
    # Before --cache-dir or a health file is made, for either command.
    _refuse_counts_below_one(args, "--workers", "--max-batch-size", "--max-queue-depth")
    _refuse_non_positive(args, "--health-interval-s")

    if args.command == "serve":
        _refuse_non_positive(args, "--poll-s")
        clock = MonotonicClock()
        health, health_sink = _build_health(args, clock)
        service = _build_service(args, clock, health_sink)
        scope = use_health(health) if health is not None else contextlib.nullcontext()
        with scope:
            if args.watch is not None:
                return asyncio.run(_serve_watch(service, args))
            return asyncio.run(_serve_stdin(service, args))

    report = asyncio.run(_run_loadgen(args))
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.report is not None:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(rendered + "\n")
    print(rendered)
    if report["lost"] > 0:
        print(f"FAIL: {report['lost']} requests lost", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
