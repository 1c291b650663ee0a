"""Tests for participant sampling and cohort/study construction."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.cohort import StudyDataset, StudyDesign, build_cohort, simulate_study
from repro.simulation.effusion import MeeState
from repro.simulation.participant import Participant, sample_participant
from repro.simulation.session import SessionConfig


class TestParticipantSampling:
    def test_demographics_in_paper_range(self, rng):
        for i in range(20):
            p = sample_participant(rng, f"P{i}")
            assert 4.0 <= p.age_years <= 6.0
            assert p.sex in ("M", "F")

    def test_anatomy_plausible(self, rng):
        for i in range(20):
            p = sample_participant(rng, f"P{i}")
            assert 0.02 <= p.geometry.length_m <= 0.035
            assert 17_000.0 <= p.drum_model.resonance_hz <= 19_000.0

    def test_state_on_day(self, rng):
        p = sample_participant(rng, "P0")
        assert p.state_on(0.5) is MeeState.PURULENT
        assert p.state_on(19.9) is MeeState.CLEAR

    def test_validation(self, rng):
        p = sample_participant(rng, "P0")
        with pytest.raises(SimulationError):
            Participant("X", 5.0, "Q", p.geometry, p.drum_model, p.trajectory)
        with pytest.raises(SimulationError):
            Participant("X", 40.0, "M", p.geometry, p.drum_model, p.trajectory)

    def test_deterministic_given_rng(self):
        a = sample_participant(np.random.default_rng(5), "P0")
        b = sample_participant(np.random.default_rng(5), "P0")
        assert a.geometry.length_m == b.geometry.length_m
        assert a.trajectory.stage_boundaries == b.trajectory.stage_boundaries


class TestCohort:
    def test_size_and_unique_ids(self, rng):
        cohort = build_cohort(25, rng)
        assert len(cohort) == 25
        assert len({p.participant_id for p in cohort}) == 25

    def test_sex_ratio_roughly_matches_paper(self):
        cohort = build_cohort(112, np.random.default_rng(0))
        males = sum(1 for p in cohort if p.sex == "M")
        assert 45 <= males <= 75  # paper: 60 of 112

    def test_zero_participants_rejected(self, rng):
        with pytest.raises(SimulationError):
            build_cohort(0, rng)


class TestStudy:
    def test_design_validation(self):
        with pytest.raises(SimulationError):
            StudyDesign(total_days=0)
        with pytest.raises(SimulationError):
            StudyDesign(sessions_per_day=0)

    def test_recording_count(self, rng):
        cohort = build_cohort(3, rng, total_days=8)
        design = StudyDesign(
            total_days=8, sessions_per_day=2, session_config=SessionConfig(duration_s=0.05)
        )
        study = simulate_study(cohort, design, rng)
        assert len(study) == 3 * 8 * 2

    def test_all_states_present(self, small_study):
        counts = small_study.state_counts()
        assert all(counts[s] > 0 for s in MeeState.ordered())

    def test_empty_dataset_rejected(self):
        with pytest.raises(SimulationError):
            StudyDataset([])

    def test_progress_callback(self, rng):
        cohort = build_cohort(2, rng, total_days=8)
        design = StudyDesign(
            total_days=8, sessions_per_day=1, session_config=SessionConfig(duration_s=0.05)
        )
        calls = []
        simulate_study(cohort, design, rng, progress=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (16, 16)
        assert len(calls) == 16
