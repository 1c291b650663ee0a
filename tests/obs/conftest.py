"""Fixtures for the observability-layer tests.

The shared study is small (2 participants x 8 days of 0.1 s
recordings) with two recordings silenced, so traces always contain
both successful pipelines and quarantine paths.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import EarSonarConfig, EarSonarPipeline
from repro.obs import Span
from repro.simulation import SessionConfig, StudyDesign, build_cohort, simulate_study

#: Input positions replaced with silent waveforms (guaranteed failures).
POISONED = (1, 5)


def structure(span: Span) -> tuple:
    """Deterministic projection of a span tree: names, attrs and shape.

    Two runs of the same input produce equal structures regardless of
    execution mode (serial vs pool) or machine speed; only the timings
    differ, and they are left out.
    """
    return (
        span.name,
        tuple(sorted(span.attrs.items())),
        tuple(structure(child) for child in span.children),
    )


@pytest.fixture(scope="package")
def obs_pipeline() -> EarSonarPipeline:
    return EarSonarPipeline(EarSonarConfig())


@pytest.fixture(scope="package")
def obs_recordings():
    """16 fast recordings, two of them silent (unprocessable)."""
    rng = np.random.default_rng(7)
    cohort = build_cohort(2, rng, total_days=8)
    design = StudyDesign(
        total_days=8,
        sessions_per_day=1,
        session_config=SessionConfig(duration_s=0.1),
    )
    study = simulate_study(cohort, design, rng)
    recordings = list(study.recordings)
    for index in POISONED:
        recordings[index] = dataclasses.replace(
            recordings[index], waveform=np.zeros_like(recordings[index].waveform)
        )
    return recordings
