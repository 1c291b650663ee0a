"""EarSonar reproduction: acoustic middle-ear-effusion detection.

A full-system reproduction of *EarSonar: An Acoustic Signal-Based
Middle-Ear Effusion Detection Using Earphones* (ICDCS 2023) — the
FMCW probing pipeline, parity-decomposition echo segmentation,
absorption-spectrum features, k-means effusion grading, a physics-based
virtual clinic standing in for the unavailable clinical dataset, the
Chan-et-al.-2019 baseline, and the paper's full evaluation suite.

Importing ``repro`` loads no subpackage; import what a path runs from
its subpackage (``repro.core``, ``repro.simulation``, ``repro.qa`` …).

Quick start (``smoke`` below is this, packaged)::

    import numpy as np
    from repro.core import EarSonarScreener
    from repro.simulation import (
        StudyDesign, build_cohort, simulate_study, record_session,
        SessionConfig, sample_participant,
    )

    seed = 0  # any seed; every stage downstream is deterministic in it
    rng = np.random.default_rng(seed)
    cohort = build_cohort(8, rng)
    study = simulate_study(cohort, StudyDesign(total_days=8), rng)
    screener = EarSonarScreener().fit(study)

    patient = sample_participant(rng, "NEW")
    result = screener.screen(record_session(patient, 0.5, SessionConfig(), rng))
    print(result.state, result.confidence)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core.results import ScreeningResult

__version__ = "1.0.0"


def smoke(
    seed: int = 0,
    *,
    participants: int = 8,
    total_days: int = 8,
    duration_s: float = 0.5,
) -> ScreeningResult:
    """Run the quick-start end to end and return the screening result.

    The package's smoke path: simulates a small seeded study, fits a
    screener on it, then screens one held-out participant.  ``seed``
    drives every stochastic component — two calls with the same
    arguments return identical results, and different seeds exercise
    different virtual cohorts.

    Parameters
    ----------
    seed:
        Seed for the study simulation and all downstream learning.
    participants:
        Cohort size of the reference study.
    total_days:
        Follow-up days simulated per participant (>= 8 covers all four
        effusion states of the recovery trajectory).
    duration_s:
        Recording length per session, in seconds.
    """
    import numpy as np

    from .core import EarSonarScreener
    from .simulation import (
        SessionConfig,
        StudyDesign,
        build_cohort,
        record_session,
        sample_participant,
        simulate_study,
    )

    rng = np.random.default_rng(seed)
    cohort = build_cohort(participants, rng, total_days=total_days)
    study = simulate_study(cohort, StudyDesign(total_days=total_days), rng)
    screener = EarSonarScreener().fit(study)

    patient = sample_participant(rng, "NEW")
    recording = record_session(patient, 0.5, SessionConfig(duration_s=duration_s), rng)
    return screener.screen(recording)


__all__ = ["smoke", "__version__"]
