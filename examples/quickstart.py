#!/usr/bin/env python
"""Quickstart: train EarSonar on a virtual clinic, screen a new child.

Runs in about a minute on a laptop.  The flow mirrors the paper's
deployment story: calibrate once on a labelled reference study, then
screen individual earphone recordings at home.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import EarSonarScreener
from repro.simulation import (
    SessionConfig,
    StudyDesign,
    build_cohort,
    record_session,
    sample_participant,
    simulate_study,
)


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. A small reference study: 8 children followed for 8 days, one
    #    one-second recording per day (the paper uses 112 children x 20
    #    days x 2 sessions of 10 s; scale up freely).
    print("Simulating reference study (8 children x 8 days)...")
    cohort = build_cohort(8, rng, total_days=8)
    design = StudyDesign(
        total_days=8,
        sessions_per_day=1,
        session_config=SessionConfig(duration_s=1.0),
    )
    study = simulate_study(cohort, design, rng)
    print(f"  {len(study)} recordings; per state: "
          f"{ {s.value: n for s, n in study.state_counts().items()} }")

    # 2. Calibrate the screener: band-pass -> event detection -> parity
    #    echo segmentation -> absorption features -> in-group k-means.
    print("Fitting the EarSonar screener...")
    screener = EarSonarScreener().fit(study)

    # 3. Screen a brand-new child on three days of their illness.
    patient = sample_participant(rng, "NEW-PATIENT")
    session = SessionConfig(duration_s=1.0)
    print(f"Screening {patient.participant_id} "
          f"(true recovery day: {patient.trajectory.recovery_day})")
    for day in (0.5, 8.5, 19.5):
        recording = record_session(patient, day, session, rng)
        result = screener.screen(recording)
        marker = "OK " if result.state is recording.state else "MISS"
        print(
            f"  day {day:4.1f}: predicted {result.state.value:8s} "
            f"(true {recording.state.value:8s}, "
            f"confidence {result.confidence:.2f}) [{marker}]"
        )

    # 4. The binary home-screening question: does the child need a doctor?
    recording = record_session(patient, 0.5, session, rng)
    result = screener.screen(recording)
    print(
        "Effusion present:" if result.has_effusion else "Ear looks clear:",
        f"severity grade {result.severity}/3",
    )


if __name__ == "__main__":
    main()
