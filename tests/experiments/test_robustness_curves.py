"""Smoke tests for the robustness-curves experiment at tiny scale."""

from __future__ import annotations

import json

import pytest

from repro.experiments import robustness_curves
from repro.experiments.common import ExperimentScale


class TestRobustnessCurves:
    @pytest.fixture(scope="class")
    def artifact_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("robustness")

    @pytest.fixture(scope="class")
    def result(self, artifact_dir):
        config = robustness_curves.RobustnessCurvesConfig(
            scale=ExperimentScale(
                num_participants=2, total_days=8, duration_s=0.15
            ),
            severities=(0.0, 1.0),
            fault_names=("dropout", "clipping"),
            artifact_dir=str(artifact_dir),
        )
        return robustness_curves.run(config)

    def test_one_curve_per_fault_one_point_per_severity(self, result):
        assert [c.fault for c in result.curves] == ["dropout", "clipping"]
        for curve in result.curves:
            assert [p.severity for p in curve.points] == [0.0, 1.0]

    def test_f1_and_completion_are_rates(self, result):
        for curve in result.curves:
            for point in curve.points:
                assert 0.0 <= point.f1 <= 1.0
                assert 0.0 <= point.completion_rate <= 1.0
                assert point.num_tested > 0

    def test_severity_zero_is_the_clean_baseline(self, result):
        """At severity 0 no fault code runs: nothing can be rejected."""
        baselines = [c.points[0] for c in result.curves]
        for point in baselines:
            assert point.num_rejected == 0
            assert point.completion_rate == 1.0
        # Common random numbers: both faults share the same clean counts.
        first, second = baselines
        assert (first.true_positive, first.false_negative) == (
            second.true_positive,
            second.false_negative,
        )

    def test_fingerprints_distinguish_severities(self, result):
        for curve in result.curves:
            fingerprints = [p.fingerprint for p in curve.points]
            assert len(set(fingerprints)) == len(fingerprints)

    def test_artifacts_written_per_fault(self, result, artifact_dir):
        assert sorted(result.artifact_paths) == [
            str(artifact_dir / "robustness_clipping.json"),
            str(artifact_dir / "robustness_dropout.json"),
        ]
        payload = json.loads(
            (artifact_dir / "robustness_dropout.json").read_text(encoding="utf-8")
        )
        assert payload["experiment"] == "robustness_curves"
        assert payload["fault"] == "dropout"
        assert payload["severities"] == [0.0, 1.0]
        assert len(payload["f1"]) == len(payload["completion_rate"]) == 2
        assert payload["points"][0]["fault_fingerprint"]

    def test_curve_lookup(self, result):
        assert result.curve("dropout").fault == "dropout"
        with pytest.raises(KeyError):
            result.curve("meteor_strike")

    def test_render_is_a_table_with_sparklines(self, result):
        text = result.render()
        assert "Robustness curves" in text
        assert "dropout" in text and "clipping" in text
        assert "artifacts:" in text
