"""The capture→verdict workloads: seeded inputs, set-up, timed passes, check.

Every workload drives the system through public entry points only —
``BatchExecutor.run``, ``ScreeningService.submit`` on a
``MonotonicClock``, and ``MeeDetector.decision_distances`` — and holds a
verdict once the benchmark's detector call returns, because the batch
runtime and the service return features, not effusion states.

- ``study-batch``: closed batches.  Each ``BatchExecutor.run`` screens a
  whole cohort of distinct 1 s captures (64: the ``small`` experiment
  scale's 8 participants × 8 days) with the default config and no
  quality gate; the in-memory feature cache is emptied before each run,
  so every lookup misses and every result is written.
- ``fleet-serve``: an open loop at 3 req/s over three tenants; distinct
  0.1 s reverberant captures from drifting device units, served with the
  quality fast-reject and with echo/drift compensation on.  Too few
  requests fit in a run for steady percentiles, so it runs on demand
  only; ``fleet-closed`` keeps its captures and service steady.
- ``fleet-closed``: the same captures and service as ``fleet-serve``,
  sent by a closed loop of four clients over the three tenants.
- ``resubmit-serve``: a closed loop of eight clients resubmitting from a
  pool of clean captures plus damaged copies of them, the same number
  per fault model, all screened once during set-up: every answer the
  DSP gave is cached; captures it failed are recomputed on every
  resubmission.

All inputs come from ``--seed``: the program only ever sees the generated
``Recording`` objects.  The detector is calibrated on a fixed reference
study (its own constant seed), as a deployed screener would be; the
seed chooses what gets screened.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.reverb import ReverbConfig
from repro.core.config import CalibrationConfig, EarSonarConfig
from repro.core.screening import EarSonarScreener
from repro.errors import AdmissionRejected, ServiceError, SignalProcessingError
from repro.faultlab import apply_to_recording, fault_catalog
from repro.obs import names
from repro.quality import QualityConfig, assess_recording
from repro.runtime import BatchExecutor, FailedRecording, FeatureCache, recording_key
from repro.serve import MonotonicClock, ScreeningRequest, ScreeningService
from repro.simulation import (
    CalibrationDriftConfig,
    MeeState,
    SessionConfig,
    StudyDesign,
    build_cohort,
    record_session,
    simulate_study,
)
from repro.simulation.participant import sample_participant

from tracing import Recorder, instrument

#: Pool size of every executor; the benchmark host has two cores.
WORKERS = 2
STATES = MeeState.ordered()
TOTAL_DAYS = 20

#: Reference study the detector is fitted on: fixed, independent of --seed.
REFERENCE_SEED = 20230701
REFERENCE_DAYS = 8

#: Captures per study-batch run: one ``small``-scale study (8 × 8), the
#: unit ``evaluate``/``python -m repro.runtime`` hand to one run.
STUDY_COHORT = 64
#: The fit is most of a study-batch set-up; on a held-out 128-capture
#: cohort, two reference participants scored 0.98 and four 0.89.
STUDY_REFERENCE_PARTICIPANTS = 2
#: Seconds one study-batch run takes on a two-core host: a pass makes
#: ``round(seconds / STUDY_RUN_S)`` runs (at least one), a fixed amount
#: of work, so its latency percentiles always rest on as many runs.
STUDY_RUN_S = 6.5

SERVE_DURATION_S = 0.1
SERVE_REFERENCE_PARTICIPANTS = 6
TENANTS = ("tenant-0", "tenant-1", "tenant-2")

FLEET_RATE = 3.0
FLEET_UNITS = 6
#: fleet-closed clients, spread over the tenants: a micro-batch of four
#: takes two rounds of the two pool workers, as one of three does, so a
#: fourth client adds verdicts per run without adding latency.
FLEET_CLIENTS = 4
#: Upper bound on the answers per second of all fleet-closed clients
#: together, for pre-drawing distinct captures.
FLEET_MAX_RATE = 20

RESUBMIT_CLIENTS = 8
#: Clean captures, and damaged copies of them per fault model: the
#: 32:1 ratio of one copy per model on 32 captures, scaled up so that a
#: run's verdict accuracy and miss mix rest on many distinct captures.
RESUBMIT_CLEAN = 256
RESUBMIT_COPIES_PER_FAULT = 8
RESUBMIT_FAULT_SEVERITY = 2.0
#: Upper bound on one client's answers per second, for pre-drawing picks.
RESUBMIT_MAX_RATE = 250


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _capture(
    rng: np.random.Generator, participant_id: str, index: int, session: SessionConfig
):
    """One capture of a fresh participant, in a state chosen round-robin.

    Cycling the target state keeps every run's state mix balanced, so the
    verdict accuracy of two seeds differs by the captures, not the mix.
    """
    participant = sample_participant(rng, participant_id, total_days=TOTAL_DAYS)
    p_end, m_end, s_end = participant.trajectory.stage_boundaries
    spans = {
        MeeState.PURULENT: (0.0, p_end),
        MeeState.MUCOID: (p_end, m_end),
        MeeState.SEROUS: (m_end, s_end),
        MeeState.CLEAR: (s_end, TOTAL_DAYS),
    }
    lo, hi = spans[STATES[index % len(STATES)]]
    return record_session(participant, float(rng.uniform(lo, hi)), session, rng)


def _fit_screener(config: EarSonarConfig, participants: int, duration_s: float):
    """Fit through ``EarSonarScreener.fit`` and warm the parent's plan caches."""
    rng = np.random.default_rng(REFERENCE_SEED)
    cohort = build_cohort(participants, rng, total_days=REFERENCE_DAYS)
    design = StudyDesign(
        total_days=REFERENCE_DAYS,
        sessions_per_day=1,
        session_config=SessionConfig(duration_s=duration_s),
    )
    reference = simulate_study(cohort, design, rng)
    screener = EarSonarScreener(config).fit(reference, workers=WORKERS)
    # Pool workers are forked from this process, so they inherit what
    # this warms: filter designs, plan caches, the gate's templates.
    warm = reference.recordings[0]
    screener.screen(warm)
    assess_recording(warm, config.chirp, QualityConfig())
    return screener


def _verdict(detector, processed) -> str:
    """The effusion state the detector assigns to one feature vector."""
    distances = detector.decision_distances(processed.features)[0]
    return STATES[int(np.argmin(distances))].value


def _observe(detector, outcome) -> tuple[str, str]:
    if isinstance(outcome, FailedRecording):
        return ("quarantined", outcome.error_type)
    return ("state", _verdict(detector, outcome))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    """What one timed pass attempted and observed, before the check.

    ``served`` pairs every attempted capture with its outcome:
    ``("state", value)``, ``("quarantined", error type)``, or
    ``("refused", reason)`` / ``("lost", error type)``, answered at the
    matching ``finished_at``.  ``wall`` is the timed phase's length in
    seconds, ``walls`` that of each run on closed batches.
    ``per_capture_ms`` is the end-to-end time per capture: the median
    verdict latency when serving; run wall time over run size for closed
    batches, whose captures all wait for the whole run.
    """

    served: list = field(default_factory=list)
    finished_at: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    wall: float = 0.0
    walls: list[float] = field(default_factory=list)
    per_capture_ms: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)


def _executor_stats(executor: BatchExecutor) -> dict[str, float]:
    report = executor.metrics.report()
    counters = report["counters"]
    runs = report["histograms"].get(names.HIST_BATCH_MS, {}).get("count", 0)
    return {
        "runs": float(runs),
        "chunks": float(counters.get(names.METRIC_CHUNKS_DISPATCHED, 0)),
    }


def _span(recorder: Recorder | None, name: str, rid: str | None = None):
    return recorder.span(name, rid) if recorder is not None else nullcontext()


def _traced(recorder: Recorder | None):
    """Entry points wrapped for the timed phase only, when tracing."""
    return instrument(recorder) if recorder is not None else nullcontext()


# ---------------------------------------------------------------------------
# study-batch
# ---------------------------------------------------------------------------


class StudyBatch:
    """Closed batches: repeated ``BatchExecutor.run`` calls over one cohort."""

    name = "study-batch"
    gate = None

    def __init__(self, seed: int, seconds: float) -> None:
        self.seconds = seconds
        self.screener = _fit_screener(
            EarSonarConfig(), STUDY_REFERENCE_PARTICIPANTS, SessionConfig().duration_s
        )
        rng = np.random.default_rng(seed)
        self.cohort = [
            _capture(rng, f"S{i:04d}", i, SessionConfig()) for i in range(STUDY_COHORT)
        ]
        self.cache = FeatureCache(capacity=None)
        self.executor = BatchExecutor(self.screener.pipeline, workers=WORKERS, cache=self.cache)

    def close(self) -> None:
        pass

    def run_pass(self, recorder: Recorder | None = None, fraction: float = 1.0) -> PassResult:
        """As many runs as fit ``seconds * fraction`` on a two-core host."""
        detector = self.screener.detector
        runs = max(1, round(self.seconds * fraction / STUDY_RUN_S))
        result = PassResult()
        first_run = _executor_stats(self.executor)
        walls: list[float] = []
        with _traced(recorder):
            while len(walls) < runs:
                self.cache.clear_memory()
                with _span(recorder, "study.batch", f"run-{len(walls)}"):
                    start = time.perf_counter()
                    outcomes = self.executor.run(self.cohort).outcomes
                    for recording, outcome in zip(self.cohort, outcomes):
                        result.served.append((recording, _observe(detector, outcome)))
                        result.finished_at.append(time.perf_counter())
                        result.latencies_ms.append((result.finished_at[-1] - start) * 1e3)
                    walls.append(time.perf_counter() - start)
        result.wall = sum(walls)
        result.walls = walls
        result.per_capture_ms = result.wall * 1e3 / len(result.served)
        result.stats = {
            key: value - first_run[key]
            for key, value in _executor_stats(self.executor).items()
        }
        return result


# ---------------------------------------------------------------------------
# Serving workloads
# ---------------------------------------------------------------------------


class _Served:
    """Shared service plumbing: one event loop, one service per pass.

    Set-up starts the first pass's service; each later pass starts its
    own, on a fresh cache holding what set-up left in the first.
    """

    gate = QualityConfig()

    def _start(self, cache: FeatureCache) -> ScreeningService:
        executor = BatchExecutor(self.screener.pipeline, workers=WORKERS, cache=cache)
        service = ScreeningService(
            executor, clock=MonotonicClock(), fast_reject=self.gate
        )
        self.loop.run_until_complete(service.start())
        return service

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
        self.loop.close()

    def _fresh_cache(self) -> FeatureCache:
        return FeatureCache(capacity=None)

    def _response(self, root, response) -> tuple[str, str]:
        if root is not None:
            root.attrs["batch"] = response.batch
        # Only the figures: keeping every response would keep its features.
        self.responses.append((response.batch, response.queue_ms, response.batch_ms))
        return _observe(self.screener.detector, response.outcome)

    def run_pass(self, recorder: Recorder | None = None, fraction: float = 1.0) -> PassResult:
        self.responses = []
        result = PassResult()
        service, self.service = self.service, None
        with _traced(recorder):
            if service is None or recorder is not None:
                if service is not None:
                    self.loop.run_until_complete(service.stop())
                # Started under the wrappers: the service binds executor.run.
                service = self._start(self._fresh_cache())
            self.service = service  # close() stops it if the pass fails
            start, loadgen = self.loop.run_until_complete(
                self._drive(service, recorder, fraction, result)
            )
        self.service = None
        self.loop.run_until_complete(service.stop())
        result.wall = max(result.finished_at) - start
        result.per_capture_ms = float(np.median(result.latencies_ms))
        result.stats = _executor_stats(service.executor)
        result.stats.update(loadgen)
        batched = [r for r in self.responses if r[0] >= 0]
        result.stats.update(
            queue_ms=float(np.median([r[1] for r in batched])) if batched else 0.0,
            batch_ms=float(np.median([r[2] for r in batched])) if batched else 0.0,
            batches=float(len({r[0] for r in batched})),
            fast_rejected=float(len(self.responses) - len(batched)),
        )
        result.stats["batch_size"] = (
            len(batched) / result.stats["batches"] if batched else 0.0
        )
        return result

    async def _submit(self, service, rid, tenant, recording, root):
        """One request; returns its outcome (``refused``/``lost`` on errors)."""
        try:
            response = await service.submit(ScreeningRequest(rid, tenant, recording))
        except AdmissionRejected as rejection:
            return ("refused", rejection.reason)
        except ServiceError as exc:
            return ("lost", type(exc).__name__)
        return self._response(root, response)


def _fleet_screener() -> EarSonarScreener:
    """Echo and drift compensation on, calibrated on clean captures."""
    config = EarSonarConfig(
        reverb=ReverbConfig(enabled=True),
        calibration=CalibrationConfig(enabled=True),
    )
    return _fit_screener(config, SERVE_REFERENCE_PARTICIPANTS, SERVE_DURATION_S)


def _fleet_captures(rng: np.random.Generator, count: int, prefix: str) -> list:
    """Distinct reverberant 0.1 s captures, each from a drifting device unit."""
    units = rng.integers(FLEET_UNITS, size=count)
    return [
        _capture(
            rng,
            f"{prefix}{i:04d}",
            i,
            SessionConfig(
                duration_s=SERVE_DURATION_S,
                reverb=ReverbConfig(enabled=True),
                calibration=CalibrationDriftConfig(enabled=True),
                device_unit=int(units[i]),
            ),
        )
        for i in range(count)
    ]


class FleetServe(_Served):
    """Open loop: a seeded Poisson schedule at 3 req/s over three tenants."""

    name = "fleet-serve"

    def __init__(
        self, seed: int, seconds: float, screener: EarSonarScreener | None = None
    ) -> None:
        self.screener = screener if screener is not None else _fleet_screener()
        rng = np.random.default_rng(seed)
        count = max(4, round(FLEET_RATE * seconds))
        # A Poisson process conditioned on its count: sorted uniform
        # arrival times, so every run offers the same number of requests.
        self.offsets = np.sort(rng.uniform(0.0, seconds, count))
        self.tenants = [TENANTS[int(i)] for i in rng.integers(len(TENANTS), size=count)]
        self.captures = _fleet_captures(rng, count, "F")
        self.loop = asyncio.new_event_loop()
        self.service = self._start(self._fresh_cache())

    async def _drive(self, service, recorder, fraction, result) -> tuple[float, dict]:
        count = max(1, round(len(self.captures) * fraction))
        clock = service.clock
        lags: list[float] = []
        in_flight = 0
        backlog_end = 0
        start = time.perf_counter()
        result.served = [None] * count
        result.finished_at = [0.0] * count

        async def one(i: int) -> None:
            nonlocal in_flight, backlog_end
            due = start + float(self.offsets[i])
            await clock.sleep(due - time.perf_counter())
            sent = time.perf_counter()
            lags.append(sent - due)
            if i == count - 1:
                backlog_end = in_flight
            in_flight += 1
            try:
                with _span(recorder, "request", f"r{i}") as root:
                    if root is not None:
                        root.start = due
                        recorder.record("loadgen", due, sent, root)
                    outcome = await self._submit(
                        service, f"r{i}", self.tenants[i], self.captures[i], root
                    )
            finally:
                in_flight -= 1
            done = time.perf_counter()
            result.served[i] = (self.captures[i], outcome)
            result.finished_at[i] = done
            if outcome[0] in ("state", "quarantined"):
                result.latencies_ms.append((done - due) * 1e3)

        await asyncio.gather(*(one(i) for i in range(count)))
        return start, {
            "lag_p95_ms": float(np.percentile(lags, 95)) * 1e3,
            "backlog_end": float(backlog_end),
        }


class _ClosedLoop(_Served):
    """Clients that each send their next capture as soon as they are answered."""

    clients: int

    def _pick(self, client: int, number: int):
        """The capture ``client`` sends as its ``number``-th, or ``None`` to stop."""
        raise NotImplementedError

    async def _drive(self, service, recorder, fraction, result) -> tuple[float, dict]:
        start = time.perf_counter()
        stop_at = start + self.seconds * fraction

        async def client(k: int) -> None:
            sent_count = 0
            while time.perf_counter() < stop_at:
                recording = self._pick(k, sent_count)
                if recording is None:
                    return
                rid = f"c{k}-{sent_count}"
                sent_count += 1
                sent = time.perf_counter()
                with _span(recorder, "request", rid) as root:
                    outcome = await self._submit(
                        service, rid, TENANTS[k % len(TENANTS)], recording, root
                    )
                done = time.perf_counter()
                result.served.append((recording, outcome))
                result.finished_at.append(done)
                if outcome[0] in ("state", "quarantined"):
                    result.latencies_ms.append((done - sent) * 1e3)

        await asyncio.gather(*(client(k) for k in range(self.clients)))
        return start, {}


class FleetClosed(_ClosedLoop):
    """Closed loop: four clients over three tenants, every capture distinct."""

    name = "fleet-closed"
    clients = FLEET_CLIENTS

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.screener = _fleet_screener()
        rng = np.random.default_rng(seed)
        per_client = max(8, int(seconds * FLEET_MAX_RATE / FLEET_CLIENTS))
        captures = _fleet_captures(rng, per_client * FLEET_CLIENTS, "C")
        self.queues = [captures[k::FLEET_CLIENTS] for k in range(FLEET_CLIENTS)]
        self.loop = asyncio.new_event_loop()
        self.service = self._start(self._fresh_cache())

    def _pick(self, client: int, number: int):
        queue = self.queues[client]
        return queue[number] if number < len(queue) else None

    def open_loop_pass(self, fraction: float) -> PassResult:
        """``fleet-serve``'s open loop on this screener, for the generator's lag.

        A closed loop never falls behind a schedule, so the traced run
        measures ``loadgen.*`` on a short open-loop pass at 3 req/s.
        """
        probe = FleetServe(self.seed, self.seconds * fraction, self.screener)
        try:
            return probe.run_pass()
        finally:
            probe.close()


class ResubmitServe(_ClosedLoop):
    """Closed loop: eight clients resubmitting cached and damaged captures."""

    name = "resubmit-serve"
    clients = RESUBMIT_CLIENTS

    def __init__(self, seed: int, seconds: float) -> None:
        self.seconds = seconds
        self.screener = _fit_screener(
            EarSonarConfig(), SERVE_REFERENCE_PARTICIPANTS, SERVE_DURATION_S
        )
        rng = np.random.default_rng(seed)
        clean = [
            _capture(rng, f"R{i:03d}", i, SessionConfig(duration_s=SERVE_DURATION_S))
            for i in range(RESUBMIT_CLEAN)
        ]
        damaged = [
            apply_to_recording(clean[int(rng.integers(len(clean)))], model, rng)
            for _, model in sorted(fault_catalog(RESUBMIT_FAULT_SEVERITY).items())
            for _ in range(RESUBMIT_COPIES_PER_FAULT)
        ]
        self.pool = clean + damaged
        picks = max(64, int(seconds * RESUBMIT_MAX_RATE))
        self.plans = rng.integers(len(self.pool), size=(RESUBMIT_CLIENTS, picks))
        cache = FeatureCache(capacity=None)
        prefill = BatchExecutor(self.screener.pipeline, workers=WORKERS, cache=cache)
        outcomes = prefill.run(self.pool).outcomes
        fingerprint = self.screener.config.fingerprint()
        self.prefilled = [
            (recording_key(recording, fingerprint), outcome)
            for recording, outcome in zip(self.pool, outcomes)
            if not isinstance(outcome, FailedRecording)
        ]
        self.loop = asyncio.new_event_loop()
        self.service = self._start(cache)

    def _fresh_cache(self) -> FeatureCache:
        """A cache holding exactly what set-up pre-filled."""
        cache = FeatureCache(capacity=None)
        for key, outcome in self.prefilled:
            cache.put(key, outcome)
        return cache

    def _pick(self, client: int, number: int):
        plan = self.plans[client]
        return self.pool[int(plan[number % len(plan)])]


WORKLOADS = {w.name: w for w in (StudyBatch, FleetServe, FleetClosed, ResubmitServe)}


# ---------------------------------------------------------------------------
# Direct-path check
# ---------------------------------------------------------------------------

_CHECK: dict = {}


def _check_init(screener: EarSonarScreener, gate: QualityConfig | None) -> None:
    _CHECK.update(screener=screener, gate=gate)


def direct_outcome(screener: EarSonarScreener, gate: QualityConfig | None, recording):
    """The outcome ``EarSonarScreener.screen`` (behind the gate) gives."""
    if gate is not None and assess_recording(recording, screener.config.chirp, gate).rejected:
        return ("quarantined", "QualityRejectedError")
    try:
        return ("state", screener.screen(recording).state.value)
    except SignalProcessingError as exc:
        return ("quarantined", type(exc).__name__)


def _check_one(recording):
    return direct_outcome(_CHECK["screener"], _CHECK["gate"], recording)


def direct_outcomes(workload, recordings) -> dict[int, tuple[str, str]]:
    """Direct-path outcome of every distinct capture, keyed by ``id``.

    Runs on the benchmark's own pool of processes, after timing.
    """
    distinct = list({id(r): r for r in recordings}.values())
    context = multiprocessing.get_context("fork")
    pool = context.Pool(
        WORKERS, initializer=_check_init, initargs=(workload.screener, workload.gate)
    )
    try:
        outcomes = pool.map(_check_one, distinct, chunksize=max(1, len(distinct) // 8))
        pool.close()
    finally:
        pool.terminate()
        pool.join()
    return {id(r): outcome for r, outcome in zip(distinct, outcomes)}
