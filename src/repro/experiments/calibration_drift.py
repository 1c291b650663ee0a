"""Calibration-drift robustness — F1 across reverb strength x drift.

The echo-aware pipeline claims two things: the rake stage absorbs early
canal reflections, and the on-device calibration estimate divides out a
drifted earphone's gain/tilt error.  This experiment pressure-tests
both claims on a grid of (reverb strength, drift magnitude) capture
conditions, screening every cell twice:

- **compensated** — reverb and calibration stages enabled (the full
  echo-aware pipeline);
- **naive** — the plain robust pipeline, kept as the reference that
  shows what the compensation is worth.

Each arm trains its own detector on *clean* captures processed by its
own pipeline, so train and test always share an analysis path and the
comparison isolates capture-condition damage, not pipeline mismatch.
Common random numbers across cells (the session RNG is reset per cell)
mean every cell screens the *same* underlying recordings, differing
only through the simulated reverb/drift — so the grid differences are
pure treatment effects.

The artifact (``robustness_calibration_drift.json``) lands next to the
fault-sweep curves and carries F1, completion rate, and the mean
estimated calibration offset per cell.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..acoustics.reverb import ReverbConfig
from ..core.config import CalibrationConfig, DetectorConfig, EarSonarConfig
from ..core.config import RobustnessConfig as PipelineRobustnessConfig
from ..core.detector import MeeDetector
from ..core.pipeline import EarSonarPipeline
from ..core.results import index_to_state
from ..errors import SignalProcessingError
from ..simulation.calibration import CalibrationDriftConfig as DriftModelConfig
from ..simulation.cohort import build_cohort
from ..simulation.session import SessionConfig, record_session
from .common import ExperimentScale, build_feature_table, format_table
from .conditions import state_days

__all__ = [
    "CalibrationDriftExperimentConfig",
    "GridCell",
    "CalibrationDriftResult",
    "run",
]


@dataclass(frozen=True)
class CalibrationDriftExperimentConfig:
    """Grid sweep of reverb strength x calibration-drift magnitude.

    Attributes
    ----------
    scale:
        Study scale for detector training and the test cohort.
    reverb_strengths:
        Simulated reverb strength per column; 0 disables the reverb
        model entirely (bit-identical anechoic captures).
    drift_scales:
        Multiplier on the default drift magnitudes per row; 0 disables
        the drift model (factory-calibrated fleet).
    sessions_per_state:
        Test recordings per participant per ground-truth state.
    artifact_dir:
        Directory for the JSON artifact; ``None`` disables writing.
    """

    scale: ExperimentScale = field(default_factory=ExperimentScale)
    reverb_strengths: tuple[float, ...] = (0.0, 1.0, 2.0)
    drift_scales: tuple[float, ...] = (0.0, 1.0, 2.0)
    sessions_per_state: int = 1
    artifact_dir: str | None = "artifacts/robustness"


@dataclass(frozen=True)
class GridCell:
    """Both arms' screening outcome at one capture condition."""

    reverb_strength: float
    drift_scale: float
    f1_compensated: float
    f1_naive: float
    completion_compensated: float
    completion_naive: float
    mean_abs_offset_db: float

    def summary(self) -> dict:
        """JSON-serializable digest of this grid cell."""
        return {
            "reverb_strength": self.reverb_strength,
            "drift_scale": self.drift_scale,
            "f1_compensated": self.f1_compensated,
            "f1_naive": self.f1_naive,
            "completion_compensated": self.completion_compensated,
            "completion_naive": self.completion_naive,
            "mean_abs_offset_db": self.mean_abs_offset_db,
        }


@dataclass
class CalibrationDriftResult:
    """The full grid plus artifact bookkeeping."""

    cells: list[GridCell]
    artifact_paths: list[str] = field(default_factory=list)

    def cell(self, reverb_strength: float, drift_scale: float) -> GridCell:
        """The cell at one (reverb, drift) condition."""
        for c in self.cells:
            if (
                c.reverb_strength == reverb_strength
                and c.drift_scale == drift_scale
            ):
                return c
        raise KeyError(f"no cell at ({reverb_strength}, {drift_scale})")

    def artifact(self) -> dict:
        """Full JSON artifact payload."""
        return {
            "experiment": "calibration_drift",
            "reverb_strengths": sorted({c.reverb_strength for c in self.cells}),
            "drift_scales": sorted({c.drift_scale for c in self.cells}),
            "cells": [c.summary() for c in self.cells],
        }

    def write_artifacts(self, directory: str | Path) -> list[str]:
        """Write ``robustness_calibration_drift.json``; returns paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "robustness_calibration_drift.json"
        path.write_text(
            json.dumps(self.artifact(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        self.artifact_paths = [str(path)]
        return self.artifact_paths

    def render(self) -> str:
        headers = [
            "reverb",
            "drift",
            "F1 comp",
            "F1 naive",
            "compl comp",
            "compl naive",
            "|offset| dB",
        ]
        rows = []
        for c in self.cells:
            rows.append(
                [
                    f"{c.reverb_strength:g}",
                    f"{c.drift_scale:g}",
                    f"{c.f1_compensated:.2f}",
                    f"{c.f1_naive:.2f}",
                    f"{c.completion_compensated:.2f}",
                    f"{c.completion_naive:.2f}",
                    f"{c.mean_abs_offset_db:.2f}",
                ]
            )
        table = format_table(
            headers,
            rows,
            title=(
                "Calibration drift — compensated vs naive screening across "
                "reverb x drift"
            ),
        )
        if self.artifact_paths:
            table += "\nartifacts: " + ", ".join(self.artifact_paths)
        return table


def _arm_configs() -> tuple[EarSonarConfig, EarSonarConfig]:
    """(compensated, naive) pipeline configurations.

    Both run with graceful degradation on, so damaged captures degrade
    before they fail; only the compensated arm turns on the rake and
    calibration stages.
    """
    compensated = EarSonarConfig(
        robustness=PipelineRobustnessConfig(sanitize_nonfinite=True),
        reverb=ReverbConfig(enabled=True),
        calibration=CalibrationConfig(enabled=True),
    )
    naive = EarSonarConfig(
        robustness=PipelineRobustnessConfig(sanitize_nonfinite=True)
    )
    return compensated, naive


def _cell_session_config(
    base: SessionConfig, reverb_strength: float, drift_scale: float
) -> SessionConfig:
    """The capture-side session config for one grid cell."""
    reverb = ReverbConfig(
        enabled=reverb_strength > 0.0,
        strength=reverb_strength if reverb_strength > 0.0 else 1.0,
    )
    defaults = DriftModelConfig()
    calibration = DriftModelConfig(
        enabled=drift_scale > 0.0,
        gain_drift_db=defaults.gain_drift_db * max(drift_scale, 1.0),
        tilt_drift_db=defaults.tilt_drift_db * max(drift_scale, 1.0),
    )
    return dataclasses.replace(base, reverb=reverb, calibration=calibration)


def run(
    config: CalibrationDriftExperimentConfig | None = None,
) -> CalibrationDriftResult:
    """Train both arms clean, then screen every grid cell with each."""
    config = config or CalibrationDriftExperimentConfig()
    comp_config, naive_config = _arm_configs()
    arms = []
    for arm_config in (comp_config, naive_config):
        pipeline = EarSonarPipeline(arm_config)
        table = build_feature_table(config.scale, pipeline=pipeline)
        detector = MeeDetector(DetectorConfig()).fit(table.features, table.states)
        arms.append((pipeline, detector))

    cohort = build_cohort(
        config.scale.num_participants,
        np.random.default_rng(config.scale.seed),
        total_days=config.scale.total_days,
    )
    base_session = SessionConfig(duration_s=config.scale.duration_s)
    cells = []
    for reverb_strength in config.reverb_strengths:
        for drift_scale in config.drift_scales:
            session = _cell_session_config(
                base_session, reverb_strength, drift_scale
            )
            # Common random numbers: the session RNG restarts per cell,
            # so every cell screens the same recordings, reshaped only
            # by the cell's reverb/drift condition.
            session_rng = np.random.default_rng(config.scale.seed + 7)
            tallies = [
                {"tp": 0, "fp": 0, "fn": 0, "tn": 0, "rejected": 0}
                for _ in arms
            ]
            offsets = []
            for unit, participant in enumerate(cohort):
                # Each participant screens on their own physical unit,
                # so the fleet's drift walks are independent.
                cell_session = dataclasses.replace(session, device_unit=unit)
                days = state_days(participant, config.scale.total_days)
                for state, day in days.items():
                    for _ in range(config.sessions_per_state):
                        recording = record_session(
                            participant, day, cell_session, session_rng
                        )
                        truth = recording.state.is_effusion
                        for (pipeline, detector), tally in zip(arms, tallies):
                            try:
                                processed = pipeline.process(recording)
                            except SignalProcessingError:
                                tally["rejected"] += 1
                                predicted = False
                            else:
                                if pipeline is arms[0][0]:
                                    offsets.append(
                                        abs(processed.calibration_offset_db)
                                    )
                                index = int(
                                    detector.predict_indices(
                                        processed.features
                                    )[0]
                                )
                                predicted = index_to_state(index).is_effusion
                            if truth and predicted:
                                tally["tp"] += 1
                            elif truth:
                                tally["fn"] += 1
                            elif predicted:
                                tally["fp"] += 1
                            else:
                                tally["tn"] += 1
            scores = []
            for tally in tallies:
                denom = 2 * tally["tp"] + tally["fp"] + tally["fn"]
                f1 = 2 * tally["tp"] / denom if denom else 0.0
                total = sum(
                    tally[k] for k in ("tp", "fp", "fn", "tn")
                )
                completion = (
                    1.0 - tally["rejected"] / total if total else 0.0
                )
                scores.append((f1, completion))
            cells.append(
                GridCell(
                    reverb_strength=reverb_strength,
                    drift_scale=drift_scale,
                    f1_compensated=scores[0][0],
                    f1_naive=scores[1][0],
                    completion_compensated=scores[0][1],
                    completion_naive=scores[1][1],
                    mean_abs_offset_db=(
                        float(np.mean(offsets)) if offsets else 0.0
                    ),
                )
            )
    result = CalibrationDriftResult(cells=cells)
    if config.artifact_dir is not None:
        result.write_artifacts(config.artifact_dir)
    return result
