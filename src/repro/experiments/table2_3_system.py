"""Tables II-III — on-device latency and smartphone power.

Table II times the recognition stages on a phone (band-pass 1.32 ms,
feature extraction 35.89 ms, inference 1.2 ms — feature extraction
dominates by more than an order of magnitude).  Table III reports
whole-phone power around 2.1-2.24 W for three handsets.

We time our own implementation (a laptop-class Python pipeline, so the
absolute numbers differ) and check the *shape*: feature extraction is
the dominant stage, inference and filtering are small.  Power comes
from the parametric handset energy model driven by measured latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import DetectorConfig, EarSonarConfig
from ..core.detector import MeeDetector
from ..core.evaluation import time_inference
from ..core.pipeline import EarSonarPipeline
from ..simulation.hardware import (
    SMARTPHONE_PROFILES,
    StageLatencies,
    estimate_power_mw,
)
from ..simulation.participant import sample_participant
from ..simulation.session import SessionConfig, record_session
from .common import ExperimentScale, build_feature_table, format_table

__all__ = ["SystemConfig", "SystemResult", "run", "PAPER_LATENCIES", "PAPER_POWER_MW"]

#: Paper Table II (milliseconds, on a smartphone).
PAPER_LATENCIES = StageLatencies(
    bandpass_ms=1.32, feature_extract_ms=35.89, inference_ms=1.2
)

#: Paper Table III (milliwatts).
PAPER_POWER_MW = {"Huawei": 2100.0, "Galaxy": 2120.0, "MI 10": 2243.0}


@dataclass(frozen=True)
class SystemConfig:
    """Latency/power measurement setup."""

    seed: int = 41
    duration_s: float = 1.0
    repeats: int = 5
    #: Scale of the study used to fit the detector before timing inference.
    training_scale: ExperimentScale = field(
        default_factory=lambda: ExperimentScale(num_participants=6, total_days=8, duration_s=1.0)
    )


@dataclass
class SystemResult:
    """Measured latencies plus modelled power."""

    latencies: StageLatencies
    power_mw: dict[str, float]

    @property
    def feature_extraction_dominates(self) -> bool:
        """Table II's shape: features cost the most by a wide margin."""
        return (
            self.latencies.dominant_stage == "feature_extract"
            and self.latencies.feature_extract_ms
            > 5.0 * max(self.latencies.bandpass_ms, self.latencies.inference_ms)
        )

    @property
    def power_ordering_matches_paper(self) -> bool:
        """Table III's ordering: Huawei < Galaxy < MI 10."""
        names = ("Huawei", "Galaxy", "MI 10")
        values = [self.power_mw[n] for n in names]
        return values[0] < values[1] < values[2]

    def render(self) -> str:
        ours, paper = self.latencies, PAPER_LATENCIES
        latency_rows = [
            [operation, f"{measured:.2f}", f"{reported:.2f}"]
            for operation, measured, reported in (
                ("Band-pass Filter", ours.bandpass_ms, paper.bandpass_ms),
                ("Feature Extract", ours.feature_extract_ms, paper.feature_extract_ms),
                ("Inference", ours.inference_ms, paper.inference_ms),
                ("Total", ours.total_ms, paper.total_ms),
            )
        ]
        latency = format_table(
            ["operation", "measured (ms)", "paper (ms)"],
            latency_rows,
            title="Table II — recognition latency per stage "
            "(absolute values differ: Python laptop vs optimised phone code; "
            "shape should match: features dominate)",
        )
        power_rows = [
            [name, f"{self.power_mw[name]:.0f}", f"{PAPER_POWER_MW[name]:.0f}"]
            for name in ("Huawei", "Galaxy", "MI 10")
        ]
        power = format_table(
            ["smartphone", "modelled (mW)", "paper (mW)"],
            power_rows,
            title="Table III — detection power (parametric handset model)",
        )
        verdict = (
            "feature extraction dominates: "
            + ("YES" if self.feature_extraction_dominates else "NO")
            + " | power ordering matches: "
            + ("YES" if self.power_ordering_matches_paper else "NO")
        )
        return latency + "\n\n" + power + "\n" + verdict


def run(config: SystemConfig | None = None) -> SystemResult:
    """Measure stage latencies and derive handset power."""
    config = config or SystemConfig()
    rng = np.random.default_rng(config.seed)
    pipeline = EarSonarPipeline(EarSonarConfig())
    participant = sample_participant(rng, "SYS")
    session = SessionConfig(duration_s=config.duration_s)
    recording = record_session(participant, 0.5, session, rng)

    bandpass_times, feature_times = [], []
    processed = None
    for _ in range(config.repeats):
        processed, latency = pipeline.timed_process(recording)
        bandpass_times.append(latency.bandpass_ms)
        feature_times.append(latency.feature_extract_ms)

    table = build_feature_table(config.training_scale)
    detector = MeeDetector(DetectorConfig()).fit(table.features, table.states)
    assert processed is not None
    inference_ms = time_inference(detector, processed.features, repeats=config.repeats * 4)

    latencies = StageLatencies(
        bandpass_ms=float(np.median(bandpass_times)),
        feature_extract_ms=float(np.median(feature_times)),
        inference_ms=inference_ms,
    )
    power = {
        name: estimate_power_mw(profile, latencies)
        for name, profile in SMARTPHONE_PROFILES.items()
    }
    return SystemResult(latencies=latencies, power_mw=power)
