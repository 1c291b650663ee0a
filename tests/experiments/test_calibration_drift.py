"""Smoke + contract tests for the calibration-drift grid experiment.

The headline robustness claim rides on the damaged corner of the grid:
the compensated arm must hold its clean-condition F1 while the naive
arm visibly degrades.  Everything runs at tiny scale with a 2x2 grid so
the whole module stays test-suite friendly.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import calibration_drift
from repro.experiments.common import ExperimentScale


class TestCalibrationDrift:
    @pytest.fixture(scope="class")
    def artifact_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("calibdrift")

    @pytest.fixture(scope="class")
    def result(self, artifact_dir):
        config = calibration_drift.CalibrationDriftExperimentConfig(
            scale=ExperimentScale(
                num_participants=2, total_days=8, duration_s=0.15
            ),
            reverb_strengths=(0.0, 2.0),
            drift_scales=(0.0, 2.0),
            artifact_dir=str(artifact_dir),
        )
        return calibration_drift.run(config)

    def test_one_cell_per_grid_point(self, result):
        conditions = {(c.reverb_strength, c.drift_scale) for c in result.cells}
        assert conditions == {(0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)}

    def test_scores_are_rates(self, result):
        for cell in result.cells:
            assert 0.0 <= cell.f1_compensated <= 1.0
            assert 0.0 <= cell.f1_naive <= 1.0
            assert 0.0 <= cell.completion_compensated <= 1.0
            assert 0.0 <= cell.completion_naive <= 1.0
            assert cell.mean_abs_offset_db >= 0.0

    def test_completion_stays_high_everywhere(self, result):
        # The gate must keep screening reverberant, drifted captures:
        # quarantining them would make the F1 comparison meaningless.
        for cell in result.cells:
            assert cell.completion_compensated >= 0.9
            assert cell.completion_naive >= 0.9

    def test_compensation_holds_where_naive_degrades(self, result):
        # Each arm is judged against its own clean baseline, so the
        # comparison isolates capture damage, not pipeline mismatch.
        clean = result.cell(0.0, 0.0)
        worst = result.cell(2.0, 2.0)
        comp_drop = clean.f1_compensated - worst.f1_compensated
        naive_drop = clean.f1_naive - worst.f1_naive
        assert comp_drop <= 0.1
        assert naive_drop > comp_drop

    def test_cell_lookup(self, result):
        assert result.cell(2.0, 0.0).reverb_strength == 2.0
        assert result.cell(0.0, 0.0).drift_scale == 0.0
        with pytest.raises(KeyError):
            result.cell(9.0, 9.0)

    def test_artifact_payload(self, result, artifact_dir):
        path = artifact_dir / "robustness_calibration_drift.json"
        assert result.artifact_paths == [str(path)]
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["experiment"] == "calibration_drift"
        assert payload["reverb_strengths"] == [0.0, 2.0]
        assert payload["drift_scales"] == [0.0, 2.0]
        assert len(payload["cells"]) == 4
        for cell in payload["cells"]:
            assert set(cell) == {
                "reverb_strength",
                "drift_scale",
                "f1_compensated",
                "f1_naive",
                "completion_compensated",
                "completion_naive",
                "mean_abs_offset_db",
            }

    def test_render_is_a_table(self, result):
        text = result.render()
        assert "Calibration drift" in text
        assert "F1 comp" in text and "F1 naive" in text
        assert "artifacts:" in text
