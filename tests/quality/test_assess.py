"""Unit tests for the pre-DSP signal-quality gate.

The load-bearing calibration claim: every clean simulator capture must
ACCEPT, and each faultlab failure signature must surface its own reason
code at DEGRADE or REJECT.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import EarSonarConfig
from repro.errors import ConfigurationError
from repro.quality import (
    QualityConfig,
    QualityReport,
    ReasonCode,
    Verdict,
    assess_recording,
    assess_waveform,
)


@pytest.fixture(scope="module")
def chirp():
    return EarSonarConfig().chirp


# ---------------------------------------------------------------------------
# Gate verdicts
# ---------------------------------------------------------------------------


class TestVerdicts:
    def test_clean_capture_accepts(self, recording, chirp):
        report = assess_recording(recording, chirp)
        assert report.verdict is Verdict.ACCEPT
        assert report.accepted and not report.rejected
        assert report.reasons == ()
        assert report.nonfinite_fraction == 0.0
        assert report.snr_db > QualityConfig().degrade_snr_db
        assert report.chirp_presence > QualityConfig().degrade_chirp_presence

    def test_assessment_is_deterministic(self, recording, chirp):
        a = assess_recording(recording, chirp)
        b = assess_recording(recording, chirp)
        assert a == b

    def test_empty_waveform_rejects_as_no_signal(self, recording, chirp):
        report = assess_waveform(np.array([]), recording.sample_rate, chirp)
        assert report.rejected
        assert report.reasons == (ReasonCode.NO_SIGNAL,)

    def test_silence_rejects_as_no_signal(self, recording, chirp):
        report = assess_waveform(
            np.zeros_like(recording.waveform), recording.sample_rate, chirp
        )
        assert report.rejected
        assert ReasonCode.NO_SIGNAL in report.reasons
        assert report.dropout_fraction == 1.0

    def test_heavy_nonfinite_rejects(self, recording, chirp):
        waveform = recording.waveform.copy()
        waveform[:: 10] = np.nan  # 10% >> reject_nonfinite_fraction
        report = assess_waveform(waveform, recording.sample_rate, chirp)
        assert report.rejected
        assert ReasonCode.NON_FINITE in report.reasons
        assert report.nonfinite_fraction == pytest.approx(0.1, rel=0.01)

    def test_sparse_nonfinite_degrades(self, recording, chirp):
        waveform = recording.waveform.copy()
        positions = np.arange(5) * (waveform.size // 5)
        waveform[positions] = np.inf
        report = assess_waveform(waveform, recording.sample_rate, chirp)
        assert report.verdict is Verdict.DEGRADE
        assert ReasonCode.NON_FINITE in report.reasons

    def test_clipping_is_graded(self, recording, chirp):
        peak = float(np.max(np.abs(recording.waveform)))
        clipped = np.clip(recording.waveform, -0.3 * peak, 0.3 * peak)
        report = assess_waveform(clipped, recording.sample_rate, chirp)
        assert report.verdict is not Verdict.ACCEPT
        assert ReasonCode.CLIPPING in report.reasons
        assert report.clipping_ratio > QualityConfig().degrade_clipping_ratio

    def test_dropouts_are_mapped_and_graded(self, recording, chirp):
        waveform = recording.waveform.copy()
        n = waveform.size
        waveform[n // 4 : n // 4 + n // 20] = 0.0
        waveform[n // 2 : n // 2 + n // 20] = 0.0
        report = assess_waveform(waveform, recording.sample_rate, chirp)
        assert ReasonCode.DROPOUT in report.reasons
        assert len(report.dropout_map) >= 2
        spans = [(s, e) for s, e in report.dropout_map]
        assert any(s <= n // 4 < e for s, e in spans)
        assert report.dropout_fraction >= 2 * (n // 20) / n * 0.99

    def test_chirpless_noise_flags_snr_and_presence(self, recording, chirp):
        noise = np.random.default_rng(5).standard_normal(recording.waveform.size)
        report = assess_waveform(noise, recording.sample_rate, chirp)
        assert report.verdict is not Verdict.ACCEPT
        assert ReasonCode.WEAK_CHIRP in report.reasons
        assert ReasonCode.LOW_SNR in report.reasons

    def test_truncated_capture_flagged_against_expectation(self, recording, chirp):
        short = recording.waveform[: recording.waveform.size // 3]
        report = assess_waveform(
            short,
            recording.sample_rate,
            chirp,
            expected_duration_s=recording.config.duration_s,
        )
        assert ReasonCode.TRUNCATED in report.reasons
        assert report.duration_ratio == pytest.approx(1 / 3, rel=0.05)

    def test_recording_duration_expectation_comes_from_session_config(
        self, recording, chirp
    ):
        truncated = dataclasses.replace(
            recording, waveform=recording.waveform[: recording.waveform.size // 3]
        )
        report = assess_recording(truncated, chirp)
        assert ReasonCode.TRUNCATED in report.reasons


# ---------------------------------------------------------------------------
# Config validation and report plumbing
# ---------------------------------------------------------------------------


class TestQualityConfig:
    def test_clip_band_must_be_in_unit_interval(self):
        with pytest.raises(ConfigurationError):
            QualityConfig(clip_band=0.0)

    def test_dropout_min_ms_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            QualityConfig(dropout_min_ms=0.0)

    def test_degrade_reject_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            QualityConfig(degrade_clipping_ratio=0.5, reject_clipping_ratio=0.1)
        with pytest.raises(ConfigurationError):
            QualityConfig(degrade_snr_db=-10.0, reject_snr_db=0.0)

    # clip_band is left out: its range check already refuses NaN.
    @pytest.mark.parametrize(
        "name",
        [
            f.name
            for f in dataclasses.fields(QualityConfig)
            if f.name != "clip_band"
        ],
    )
    def test_nan_field_refused(self, name):
        # A NaN threshold fails every comparison, so its check never fires.
        with pytest.raises(ConfigurationError, match=name):
            QualityConfig(**{name: float("nan")})

    def test_dropout_min_ms_must_be_finite(self):
        with pytest.raises(ConfigurationError, match="dropout_min_ms"):
            QualityConfig(dropout_min_ms=float("inf"))

    def test_infinite_threshold_switches_its_check_off(self, recording, chirp):
        peak = float(np.max(np.abs(recording.waveform)))
        clipped = np.clip(recording.waveform, -0.3 * peak, 0.3 * peak)
        off = QualityConfig(
            degrade_clipping_ratio=float("inf"), reject_clipping_ratio=float("inf")
        )
        report = assess_waveform(clipped, recording.sample_rate, chirp, off)
        assert ReasonCode.CLIPPING not in report.reasons


class TestReport:
    def _report(self, reasons=(ReasonCode.CLIPPING, ReasonCode.DROPOUT)):
        return QualityReport(
            verdict=Verdict.REJECT,
            reasons=tuple(reasons),
            chirp_presence=1.5,
            snr_db=-2.0,
            clipping_ratio=0.4,
            dropout_fraction=0.1,
            dropout_map=((0, 10),),
            nonfinite_fraction=0.0,
        )

    def test_reason_string_joins_codes(self):
        assert self._report().reason_string == "clipping; dropout"

    def test_summary_is_json_ready(self):
        import json

        summary = self._report().summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["verdict"] == "reject"
        assert summary["reasons"] == ["clipping", "dropout"]
        assert summary["num_dropouts"] == 1
