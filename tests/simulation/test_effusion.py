"""Tests for effusion states and recovery trajectories."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulation.effusion import (
    FILL_RANGES,
    STATE_FLUIDS,
    MeeState,
    RecoveryTrajectory,
)


class TestMeeState:
    def test_ordered_by_severity(self):
        severities = [s.severity for s in MeeState.ordered()]
        assert severities == [0, 1, 2, 3]

    def test_clear_is_not_effusion(self):
        assert not MeeState.CLEAR.is_effusion
        assert all(s.is_effusion for s in MeeState.ordered()[1:])

    def test_fluids_cover_effusion_states(self):
        assert set(STATE_FLUIDS) == {
            MeeState.SEROUS,
            MeeState.MUCOID,
            MeeState.PURULENT,
        }

    def test_fill_ranges_disjoint_and_increasing(self):
        serous = FILL_RANGES[MeeState.SEROUS]
        mucoid = FILL_RANGES[MeeState.MUCOID]
        purulent = FILL_RANGES[MeeState.PURULENT]
        assert serous[1] <= mucoid[0]
        assert mucoid[1] <= purulent[0]


class TestTrajectoryValidation:
    def test_boundaries_must_increase(self):
        with pytest.raises(SimulationError):
            RecoveryTrajectory((5, 5, 10), 0.8)
        with pytest.raises(SimulationError):
            RecoveryTrajectory((0, 5, 10), 0.8)

    def test_fill_bounds(self):
        with pytest.raises(SimulationError):
            RecoveryTrajectory((4, 9, 14), 0.0)

    def test_sample_requires_enough_days(self):
        with pytest.raises(SimulationError):
            RecoveryTrajectory.sample(np.random.default_rng(0), total_days=5)


class TestTrajectoryBehaviour:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sampled_trajectory_passes_all_states(self, seed):
        traj = RecoveryTrajectory.sample(np.random.default_rng(seed), total_days=20)
        states = {traj.state_at(d + 0.5) for d in range(20)}
        assert states == set(MeeState.ordered())

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_severity_never_increases(self, seed):
        traj = RecoveryTrajectory.sample(np.random.default_rng(seed), total_days=20)
        severities = [traj.state_at(d + 0.5).severity for d in range(20)]
        assert all(b <= a for a, b in zip(severities, severities[1:]))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_fill_stays_in_state_range(self, seed):
        traj = RecoveryTrajectory.sample(np.random.default_rng(seed), total_days=20)
        for d in np.linspace(0.1, 19.9, 40):
            state = traj.state_at(d)
            lo, hi = FILL_RANGES[state]
            fill = traj.fill_fraction_at(d)
            assert lo - 1e-9 <= fill <= hi + 1e-9

    def test_clear_day_has_no_load(self):
        traj = RecoveryTrajectory((4, 9, 14), 0.85)
        assert traj.load_at(15.0) is None
        assert traj.state_at(15.0) is MeeState.CLEAR

    def test_load_matches_state_fluid(self):
        traj = RecoveryTrajectory((4, 9, 14), 0.85)
        load = traj.load_at(2.0)
        assert load is not None
        assert load.fluid is STATE_FLUIDS[MeeState.PURULENT]

    def test_fill_decays_within_stage(self):
        traj = RecoveryTrajectory((6, 12, 18), 0.9)
        assert traj.fill_fraction_at(5.5) < traj.fill_fraction_at(0.5)

    def test_negative_day_rejected(self):
        traj = RecoveryTrajectory((4, 9, 14), 0.85)
        with pytest.raises(SimulationError):
            traj.state_at(-1.0)

    @pytest.mark.parametrize("day", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_day_rejected(self, day):
        traj = RecoveryTrajectory((4, 9, 14), 0.85)
        with pytest.raises(SimulationError):
            traj.state_at(day)

    def test_recovery_day(self):
        assert RecoveryTrajectory((4, 9, 14), 0.85).recovery_day == 14

    def test_fill_jitter_stays_in_range(self):
        traj = RecoveryTrajectory((4, 9, 14), 0.85)
        rng = np.random.default_rng(0)
        for _ in range(50):
            fill = traj.fill_fraction_at(2.0, rng)
            lo, hi = FILL_RANGES[MeeState.PURULENT]
            assert lo <= fill <= hi
