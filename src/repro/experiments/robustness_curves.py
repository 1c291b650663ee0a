"""Robustness curves — screening F1 versus acquisition-fault severity.

A fig14-style sweep for the faults :mod:`repro.faultlab` models: the
detector is trained once on clean recordings, then fresh per-state test
sessions are recorded, damaged by one fault model at a time across a
severity ladder, and screened.  The metric is the *binary* effusion F1
(any fluid-positive state counts as positive), with recordings the
robust pipeline still cannot process counted as non-detections — a
quarantined capture never raises an alarm, so it costs recall, not
precision.

Severity 0 skips fault application entirely, making the first point of
every curve the exact clean baseline.  Each fault's curve is exported
as a JSON artifact (one file per fault model) carrying the model's
config fingerprint at every severity, so archived curves are traceable
to the precise fault parameters that produced them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.config import DetectorConfig, EarSonarConfig
from ..core.config import RobustnessConfig as PipelineRobustnessConfig
from ..core.detector import MeeDetector
from ..core.pipeline import EarSonarPipeline
from ..core.results import index_to_state
from ..errors import SignalProcessingError
from ..faultlab import apply_to_recording, fault_catalog
from ..simulation.cohort import build_cohort
from ..simulation.session import SessionConfig, record_session
from .common import ExperimentScale, build_feature_table, format_table, sparkline
from .conditions import state_days

__all__ = ["RobustnessCurvesConfig", "FaultCurve", "RobustnessCurvesResult", "run"]


@dataclass(frozen=True)
class RobustnessCurvesConfig:
    """Severity sweep of every fault model on one trained detector.

    Attributes
    ----------
    scale:
        Study scale for training and the size of the test cohort.
    severities:
        Severity ladder; 0 is the exact clean baseline (no fault code
        runs at all).
    fault_names:
        Keys of :func:`repro.faultlab.fault_catalog` to sweep.
    sessions_per_state:
        Test recordings per participant per ground-truth state.
    artifact_dir:
        Directory for the per-fault JSON artifacts; ``None`` disables
        writing (the result still carries the data).
    """

    scale: ExperimentScale = field(default_factory=ExperimentScale)
    severities: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    fault_names: tuple[str, ...] = (
        "dropout",
        "clipping",
        "transient",
        "seal_leak",
        "dc_drift",
        "truncation",
        "nonfinite",
        "reverb_tail",
        "calibration_drift",
    )
    sessions_per_state: int = 1
    artifact_dir: str | None = "artifacts/robustness"


@dataclass(frozen=True)
class CurvePoint:
    """Screening outcome at one (fault, severity) grid point."""

    severity: float
    fingerprint: str
    true_positive: int
    false_positive: int
    false_negative: int
    true_negative: int
    num_rejected: int

    @property
    def num_tested(self) -> int:
        """All test recordings at this point, including rejections."""
        return (
            self.true_positive
            + self.false_positive
            + self.false_negative
            + self.true_negative
        )

    @property
    def completion_rate(self) -> float:
        """Fraction of recordings the pipeline processed (even degraded)."""
        if self.num_tested == 0:
            return 0.0
        return 1.0 - self.num_rejected / self.num_tested

    @property
    def f1(self) -> float:
        """Binary effusion F1; rejected positives are false negatives."""
        denom = 2 * self.true_positive + self.false_positive + self.false_negative
        if denom == 0:
            return 0.0
        return 2 * self.true_positive / denom

    def summary(self) -> dict:
        """JSON-serializable digest of this grid point."""
        return {
            "severity": self.severity,
            "fault_fingerprint": self.fingerprint,
            "f1": self.f1,
            "completion_rate": self.completion_rate,
            "true_positive": self.true_positive,
            "false_positive": self.false_positive,
            "false_negative": self.false_negative,
            "true_negative": self.true_negative,
            "num_rejected": self.num_rejected,
        }


@dataclass
class FaultCurve:
    """F1-vs-severity curve of one fault model."""

    fault: str
    points: list[CurvePoint]

    def artifact(self) -> dict:
        """Full JSON artifact payload for this fault model."""
        return {
            "experiment": "robustness_curves",
            "fault": self.fault,
            "severities": [p.severity for p in self.points],
            "f1": [p.f1 for p in self.points],
            "completion_rate": [p.completion_rate for p in self.points],
            "points": [p.summary() for p in self.points],
        }


@dataclass
class RobustnessCurvesResult:
    """All fault curves plus artifact bookkeeping."""

    curves: list[FaultCurve]
    artifact_paths: list[str] = field(default_factory=list)

    def curve(self, fault: str) -> FaultCurve:
        """The curve for one fault model name."""
        for c in self.curves:
            if c.fault == fault:
                return c
        raise KeyError(f"no curve for fault {fault!r}")

    def write_artifacts(self, directory: str | Path) -> list[str]:
        """Write one ``robustness_<fault>.json`` per curve; returns paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for c in self.curves:
            path = directory / f"robustness_{c.fault}.json"
            path.write_text(
                json.dumps(c.artifact(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            paths.append(str(path))
        self.artifact_paths = paths
        return paths

    def render(self) -> str:
        headers = ["fault", "F1 by severity", "completion by severity", "curve"]
        rows = []
        for c in self.curves:
            rows.append(
                [
                    c.fault,
                    " ".join(f"{p.f1:.2f}" for p in c.points),
                    " ".join(f"{p.completion_rate:.2f}" for p in c.points),
                    sparkline(np.array([p.f1 for p in c.points]), width=16),
                ]
            )
        severities = " / ".join(f"{p.severity:g}" for p in self.curves[0].points)
        table = format_table(
            headers,
            rows,
            title=f"Robustness curves — binary screening F1 at severities {severities}",
        )
        if self.artifact_paths:
            table += "\nartifacts: " + ", ".join(self.artifact_paths)
        return table


def run(config: RobustnessCurvesConfig | None = None) -> RobustnessCurvesResult:
    """Train clean, then sweep every fault model across the severities."""
    config = config or RobustnessCurvesConfig()
    table = build_feature_table(config.scale)
    detector = MeeDetector(DetectorConfig()).fit(table.features, table.states)
    # The test pipeline runs with graceful degradation on: NaN bursts
    # become dropouts and corrupt chirps are quarantined, so a damaged
    # capture degrades before it fails.  On clean waveforms this
    # pipeline is bit-identical to the strict default.
    pipeline = EarSonarPipeline(
        EarSonarConfig(
            robustness=PipelineRobustnessConfig(sanitize_nonfinite=True)
        )
    )
    cohort = build_cohort(
        config.scale.num_participants,
        np.random.default_rng(config.scale.seed),
        total_days=config.scale.total_days,
    )
    session = SessionConfig(duration_s=config.scale.duration_s)
    curves = []
    for fault_name in config.fault_names:
        points = []
        for severity in config.severities:
            model = fault_catalog(severity)[fault_name]
            # Common random numbers across every (fault, severity)
            # condition: the clean test sessions are identical, so the
            # curves differ only through the injected damage.
            session_rng = np.random.default_rng(config.scale.seed + 7)
            fault_rng = np.random.default_rng(config.scale.seed + 11)
            tp = fp = fn = tn = rejected = 0
            for participant in cohort:
                days = state_days(participant, config.scale.total_days)
                for state, day in days.items():
                    for _ in range(config.sessions_per_state):
                        recording = record_session(
                            participant, day, session, session_rng
                        )
                        if severity > 0.0:
                            recording = apply_to_recording(
                                recording, model, fault_rng
                            )
                        truth = recording.state.is_effusion
                        try:
                            processed = pipeline.process(recording)
                        except SignalProcessingError:
                            # Quarantined capture: never an alarm.
                            rejected += 1
                            predicted = False
                        else:
                            index = int(
                                detector.predict_indices(processed.features)[0]
                            )
                            predicted = index_to_state(index).is_effusion
                        if truth and predicted:
                            tp += 1
                        elif truth:
                            fn += 1
                        elif predicted:
                            fp += 1
                        else:
                            tn += 1
            points.append(
                CurvePoint(
                    severity=severity,
                    fingerprint=model.fingerprint(),
                    true_positive=tp,
                    false_positive=fp,
                    false_negative=fn,
                    true_negative=tn,
                    num_rejected=rejected,
                )
            )
        curves.append(FaultCurve(fault=fault_name, points=points))
    result = RobustnessCurvesResult(curves=curves)
    if config.artifact_dir is not None:
        result.write_artifacts(config.artifact_dir)
    return result
