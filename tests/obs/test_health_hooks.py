"""Fleet-health hooks in the executor, on serial and pooled runs.

Contracts under test:

- **Disabled is invisible.**  With no ambient monitor the batch outputs
  are byte-identical to a run that predates the health tier.
- **Parent-side screening rollups.**  Verdict/reason counts balance the
  batch exactly, and the quality SLO sees one sample per recording,
  whether it was computed or answered from the cache.
- **Stage rollups from the outcome.**  Rake-tap and calibration-offset
  series are keyed by device model, and the offset distribution
  reflects the drift the simulator injected into the device fleet, on
  a serial run and on a pool alike.
- **Pool reports like serial.**  Every hook runs in the parent, so a
  pooled run renders a byte-identical snapshot to a serial one and
  keeps the same per-key label budget (on a config without the
  wall-clock timing series, which is the one lane whose *values*
  legitimately differ between runs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.reverb import ReverbConfig
from repro.core.config import CalibrationConfig, EarSonarConfig
from repro.core.pipeline import EarSonarPipeline
from repro.obs import names as obs_names
from repro.obs import health
from repro.obs.health import OVERFLOW_VALUE, SERIES_LABELS, HealthMonitor, use_health
from repro.runtime import BatchExecutor
from repro.runtime.cache import FeatureCache
from repro.simulation import sample_participant
from repro.simulation.calibration import CalibrationDriftConfig
from repro.simulation.earphone import COMMERCIAL_EARPHONES
from repro.simulation.session import SessionConfig, record_session

from .conftest import POISONED

#: Deterministic-by-construction series set: everything but the
#: wall-clock ``health.recording_ms`` lane.
STAGE_SERIES = tuple(
    name for name in SERIES_LABELS if name != obs_names.HEALTH_RECORDING_MS
)


def make_monitor() -> HealthMonitor:
    return HealthMonitor(now=lambda: 1000.0, series=STAGE_SERIES)


def screening_rows(monitor: HealthMonitor) -> dict[tuple[str, str], int]:
    snap = monitor.snapshot(1000.0)
    return {
        (row["labels"]["verdict"], row["labels"]["reason"]): row["count"]
        for row in snap["series"].get(obs_names.HEALTH_SCREENINGS, [])
    }


class TestDisabledPath:
    def test_outputs_bit_identical_without_a_monitor(self, obs_pipeline, obs_recordings):
        baseline = BatchExecutor(obs_pipeline).run(obs_recordings)
        again = BatchExecutor(obs_pipeline).run(obs_recordings)
        for a, b in zip(baseline.processed, again.processed):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.confidence == b.confidence

    def test_enabled_monitor_does_not_change_the_science(
        self, obs_pipeline, obs_recordings
    ):
        baseline = BatchExecutor(obs_pipeline).run(obs_recordings)
        with use_health(make_monitor()):
            monitored = BatchExecutor(obs_pipeline).run(obs_recordings)
        for a, b in zip(baseline.processed, monitored.processed):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.confidence == b.confidence


class TestScreeningRollups:
    def test_verdicts_balance_the_batch(self, obs_pipeline, obs_recordings):
        monitor = make_monitor()
        with use_health(monitor):
            result = BatchExecutor(obs_pipeline).run(obs_recordings)
        rows = screening_rows(monitor)
        assert sum(rows.values()) == len(obs_recordings)
        accepted = sum(
            count for (verdict, _), count in rows.items() if verdict == "accepted"
        )
        failed = sum(
            count
            for (verdict, _), count in rows.items()
            if verdict in ("rejected", "failed")
        )
        assert accepted + sum(
            count for (verdict, _), count in rows.items() if verdict == "degraded"
        ) == result.ok_count
        assert failed == len(POISONED) == result.failed_count

    def test_quality_slo_sees_one_sample_per_recording(
        self, obs_pipeline, obs_recordings
    ):
        monitor = make_monitor()
        with use_health(monitor):
            BatchExecutor(obs_pipeline).run(obs_recordings)
        [quality] = [
            entry
            for entry in monitor.evaluate(1000.0)
            if entry["objective"] == obs_names.SLO_QUALITY
        ]
        assert quality["rules"][0]["events_long"] == len(obs_recordings)

    def test_cache_hits_are_screenings_and_quality_samples(
        self, obs_pipeline, obs_recordings
    ):
        # One capture answered once, then resubmitted in five more
        # batches: the cache answers those, and each is still an answer.
        monitor = make_monitor()
        executor = BatchExecutor(obs_pipeline, cache=FeatureCache())
        with use_health(monitor):
            for _ in range(6):
                executor.run([obs_recordings[0]])
        assert executor.metrics.counter(obs_names.METRIC_CACHE_HITS) == 5
        assert screening_rows(monitor) == {("accepted", ""): 6}
        [quality] = [
            entry
            for entry in monitor.evaluate(1000.0)
            if entry["objective"] == obs_names.SLO_QUALITY
        ]
        assert quality["rules"][0]["events_long"] == 6


DRIFT = CalibrationDriftConfig(
    enabled=True, gain_drift_db=6.0, tilt_drift_db=0.0, horizon_sessions=1
)

STAGE_PIPELINE = EarSonarConfig(
    reverb=ReverbConfig(enabled=True),
    calibration=CalibrationConfig(enabled=True),
)


@pytest.fixture(scope="module")
def stage_recordings():
    """Reverberant, drift-injected captures on one device model."""
    participant = sample_participant(np.random.default_rng(31), "P500")
    session = SessionConfig(
        duration_s=0.1,
        reverb=ReverbConfig(enabled=True, strength=2.0),
        calibration=DRIFT,
        device_unit=5,
    )
    rng = np.random.default_rng(29)
    return [
        record_session(participant, float(day), session, rng)
        for day in (2.0, 9.0, 16.0)
    ]


@pytest.fixture(scope="module")
def clean_stage_recordings():
    """Same protocol, no injected drift."""
    participant = sample_participant(np.random.default_rng(31), "P500")
    session = SessionConfig(duration_s=0.1, reverb=ReverbConfig(enabled=True, strength=2.0))
    rng = np.random.default_rng(29)
    return [
        record_session(participant, float(day), session, rng)
        for day in (2.0, 9.0, 16.0)
    ]


class TestStageRollups:
    workers = 1

    def run_monitored(self, recordings) -> HealthMonitor:
        monitor = make_monitor()
        with use_health(monitor):
            result = BatchExecutor(
                EarSonarPipeline(STAGE_PIPELINE), workers=self.workers
            ).run(recordings)
        assert result.failed_count == 0
        return monitor

    def test_rake_taps_are_keyed_by_device_model(self, stage_recordings):
        monitor = self.run_monitored(stage_recordings)
        snap = monitor.snapshot(1000.0)
        [row] = snap["series"][obs_names.HEALTH_RAKE_TAPS]
        assert row["labels"]["device_model"] == (
            stage_recordings[0].config.earphone.name
        )
        assert row["count"] > 0

    def test_calibration_rollup_reflects_the_injected_drift(
        self, stage_recordings, clean_stage_recordings
    ):
        drifted = self.run_monitored(stage_recordings)
        clean = self.run_monitored(clean_stage_recordings)

        def offsets(monitor):
            snap = monitor.snapshot(1000.0)
            [row] = snap["series"][obs_names.HEALTH_CALIB_OFFSET_DB]
            assert row["labels"]["device_model"] == (
                stage_recordings[0].config.earphone.name
            )
            return row

        drifted_row, clean_row = offsets(drifted), offsets(clean)
        assert drifted_row["count"] == clean_row["count"] == 3
        # The estimator reads absolute offsets with a participant bias;
        # the *difference* of the per-fleet means is the injected drift
        # signal, and it must move the drifted rollup away from the
        # clean one by a detectable margin.
        drift_signal = abs(
            drifted_row["total"] / drifted_row["count"]
            - clean_row["total"] / clean_row["count"]
        )
        assert drift_signal > 0.5


class TestStageRollupsPooled(TestStageRollups):
    """The same stage rollups, with every capture screened on a pool."""

    workers = 2


@pytest.fixture(scope="module")
def fleet_recordings():
    """One reverberant capture per commercial earphone model."""
    participant = sample_participant(np.random.default_rng(41), "P700")
    rng = np.random.default_rng(43)
    return [
        record_session(
            participant,
            float(day),
            SessionConfig(
                duration_s=0.1,
                reverb=ReverbConfig(enabled=True, strength=2.0),
                earphone=model,
            ),
            rng,
        )
        for day, model in enumerate(COMMERCIAL_EARPHONES, start=2)
    ]


class TestPoolMergesLikeSerial:
    def test_exported_state_is_byte_identical(self, obs_pipeline, obs_recordings):
        serial_monitor = make_monitor()
        with use_health(serial_monitor):
            serial = BatchExecutor(obs_pipeline, workers=1).run(obs_recordings)
        pool_monitor = make_monitor()
        with use_health(pool_monitor):
            pooled = BatchExecutor(obs_pipeline, workers=2).run(obs_recordings)
        for a, b in zip(serial.processed, pooled.processed):
            assert a.features.tobytes() == b.features.tobytes()
        assert pool_monitor.snapshot() == serial_monitor.snapshot()

    def test_pool_keeps_the_per_key_label_budget(self, fleet_recordings, monkeypatch):
        monkeypatch.setattr(health, "MAX_VALUES_PER_KEY", 1)

        def run(**executor_options):
            monitor = make_monitor()
            with use_health(monitor):
                result = BatchExecutor(
                    EarSonarPipeline(STAGE_PIPELINE), **executor_options
                ).run(fleet_recordings)
            assert result.failed_count == 0
            return monitor.snapshot()

        serial = run(workers=1)
        pooled = run(workers=2, chunk_size=1)
        for name in (obs_names.HEALTH_RAKE_TAPS, obs_names.HEALTH_CALIB_OFFSET_DB):
            models = [row["labels"]["device_model"] for row in pooled["series"][name]]
            # The first model screened keeps its row; the other three
            # fold into the overflow bucket, as on a serial run.
            assert models == [COMMERCIAL_EARPHONES[0].name, OVERFLOW_VALUE]
        assert pooled == serial
