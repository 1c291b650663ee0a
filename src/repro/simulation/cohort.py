"""Cohort construction and longitudinal study simulation.

Reproduces the paper's data-collection protocol at configurable scale:
112 children followed for 20 days with two recordings per day (8 am and
6 pm in Sec. VI-A — 112 x 20 x 2 sessions).  ``simulate_study`` walks
every participant through their recovery trajectory and yields a
:class:`StudyDataset` of recordings with ground-truth labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import SimulationError
from .effusion import MeeState
from .participant import Participant, sample_participant
from .session import Recording, SessionConfig, record_session

__all__ = ["build_cohort", "StudyDataset", "simulate_study", "StudyDesign"]


def build_cohort(
    num_participants: int,
    rng: np.random.Generator,
    *,
    total_days: int = 20,
) -> list[Participant]:
    """Sample a cohort of virtual children (paper: 112, ages 4-6)."""
    if num_participants < 1:
        raise SimulationError(
            f"num_participants must be >= 1, got {num_participants}"
        )
    width = max(3, len(str(num_participants)))
    return [
        sample_participant(rng, f"P{i + 1:0{width}d}", total_days=total_days)
        for i in range(num_participants)
    ]


@dataclass(frozen=True)
class StudyDesign:
    """Shape of the longitudinal study.

    Attributes
    ----------
    total_days:
        Follow-up length per participant (paper: 20).
    sessions_per_day:
        Recordings per participant per day (paper: 2 — morning/evening).
    session_config:
        The controlled condition shared by every session.
    """

    total_days: int = 20
    sessions_per_day: int = 2
    session_config: SessionConfig = field(default_factory=SessionConfig)

    def __post_init__(self) -> None:
        if self.total_days < 1:
            raise SimulationError(f"total_days must be >= 1, got {self.total_days}")
        if self.sessions_per_day < 1:
            raise SimulationError(
                f"sessions_per_day must be >= 1, got {self.sessions_per_day}"
            )


@dataclass
class StudyDataset:
    """All recordings of a simulated study plus index structures."""

    recordings: list[Recording]

    def __post_init__(self) -> None:
        if not self.recordings:
            raise SimulationError("a study dataset needs at least one recording")

    def __len__(self) -> int:
        return len(self.recordings)

    def __iter__(self) -> Iterator[Recording]:
        return iter(self.recordings)

    @property
    def participant_ids(self) -> list[str]:
        """Sorted unique participant identifiers."""
        return sorted({r.participant_id for r in self.recordings})

    @property
    def labels(self) -> list[MeeState]:
        """Ground-truth state of each recording, in order."""
        return [r.state for r in self.recordings]

    def state_counts(self) -> dict[MeeState, int]:
        """Number of recordings per ground-truth state."""
        counts = {state: 0 for state in MeeState.ordered()}
        for r in self.recordings:
            counts[r.state] += 1
        return counts


def simulate_study(
    cohort: Sequence[Participant],
    design: StudyDesign,
    rng: np.random.Generator,
    *,
    progress: Callable[[int, int], None] | None = None,
) -> StudyDataset:
    """Run the full longitudinal study over ``cohort``.

    Sessions are spaced evenly within each day (two sessions land at
    day + 1/3 and day + 2/3, standing in for the paper's 8 am / 6 pm
    schedule).  ``progress`` is an optional ``(done, total)`` callback
    for long runs.
    """
    recordings: list[Recording] = []
    total = len(cohort) * design.total_days * design.sessions_per_day
    done = 0
    for participant in cohort:
        for day in range(design.total_days):
            for s in range(design.sessions_per_day):
                time_of_day = (s + 1) / (design.sessions_per_day + 1)
                recordings.append(
                    record_session(
                        participant, day + time_of_day, design.session_config, rng
                    )
                )
                done += 1
                if progress is not None:
                    progress(done, total)
    return StudyDataset(recordings)
