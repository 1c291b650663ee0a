#!/usr/bin/env python
"""Recovery tracking: monitor a child's middle ear through an OM episode.

The paper's home-use vision (Sec. I): parents run a measurement twice a
day and watch the effusion grade fall as the ear drains.  This example
follows one child from admission to discharge, screening every day and
plotting (in text) the predicted severity against the ground truth —
the paper's Fig. 10 scenario, driven through the public screening API.

Usage::

    python examples/recovery_tracking.py
"""

from __future__ import annotations

import numpy as np

from repro.core import EarSonarScreener
from repro.simulation import (
    MeeState,
    SessionConfig,
    StudyDesign,
    build_cohort,
    record_session,
    sample_participant,
    simulate_study,
)

SEVERITY_BAR = {0: "", 1: "#", 2: "##", 3: "###"}


def main() -> None:
    rng = np.random.default_rng(4)

    print("Calibrating screener on a reference study...")
    cohort = build_cohort(8, rng, total_days=10)
    design = StudyDesign(
        total_days=10,
        sessions_per_day=1,
        session_config=SessionConfig(duration_s=1.5),
    )
    screener = EarSonarScreener().fit(simulate_study(cohort, design, rng))

    child = sample_participant(rng, "OM-CASE", total_days=20)
    p_end, m_end, s_end = child.trajectory.stage_boundaries
    print(
        f"\nTracking {child.participant_id}: purulent until day {p_end}, "
        f"mucoid until {m_end}, serous until {s_end}, then clear\n"
    )
    session = SessionConfig(duration_s=1.5)
    print(f"{'day':>4}  {'true state':12} {'predicted':12} {'conf':>5}  severity")
    correct = 0
    days = np.arange(0.5, 20.0, 1.0)
    alerts_resolved_day = None
    for day in days:
        recording = record_session(child, float(day), session, rng)
        result = screener.screen(recording)
        hit = result.state is recording.state
        correct += hit
        if not result.has_effusion and alerts_resolved_day is None:
            alerts_resolved_day = day
        print(
            f"{day:4.1f}  {recording.state.value:12} {result.state.value:12} "
            f"{result.confidence:5.2f}  {SEVERITY_BAR[result.severity]:3} "
            f"{'' if hit else '  <- disagrees with otoscope'}"
        )
    print(f"\nagreement with ground truth: {correct}/{len(days)}")
    if alerts_resolved_day is not None:
        print(
            f"screener first reported a clear ear on day {alerts_resolved_day:.1f} "
            f"(clinical recovery day: {child.trajectory.recovery_day})"
        )


if __name__ == "__main__":
    main()
