"""Fixtures for the chaos suite.

Two shared workloads:

- ``chaos_batch`` — 16 fast recordings for executor fault-injection
  scenarios (crash/hang/error) on the pool path;
- ``acceptance_batch`` — the seeded 200-recording batch behind the
  headline robustness acceptance criterion (>= 90% completion under
  any single fault at default severity).

Both are package-scoped: simulation is the expensive part, and the
recordings are immutable inputs every test damages via copies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import SessionConfig, StudyDesign, build_cohort, simulate_study


def _recordings(num_participants: int, total_days: int, seed: int):
    rng = np.random.default_rng(seed)
    cohort = build_cohort(num_participants, rng, total_days=total_days)
    design = StudyDesign(
        total_days=total_days,
        sessions_per_day=1,
        session_config=SessionConfig(duration_s=0.1),
    )
    return list(simulate_study(cohort, design, rng).recordings)


@pytest.fixture(scope="package")
def chaos_batch():
    """16 fast recordings for fault-injection scenarios."""
    return _recordings(2, 8, seed=505)


@pytest.fixture(scope="package")
def acceptance_batch():
    """The seeded 200-recording batch of the acceptance criterion."""
    return _recordings(25, 8, seed=2023)
