"""Tests for the end-to-end signal pipeline."""

import numpy as np
import pytest

from repro.core.config import EarSonarConfig
from repro.core.pipeline import EarSonarPipeline
from repro.errors import ConfigurationError, NoEchoFoundError
from repro.features.vector import FeatureVectorConfig
from repro.simulation.session import Recording, SessionConfig


class TestStages:
    def test_preprocess_removes_low_frequency(self, pipeline, recording):
        filtered = pipeline.preprocess(recording.waveform)
        spectrum = np.abs(np.fft.rfft(filtered)) ** 2
        freqs = np.fft.rfftfreq(filtered.size, d=1.0 / recording.sample_rate)
        low = spectrum[freqs < 10_000.0].sum()
        assert low / spectrum.sum() < 0.01

    def test_event_count_matches_chirps(self, pipeline, recording):
        filtered = pipeline.preprocess(recording.waveform)
        events = pipeline.detect_chirp_events(filtered)
        assert len(events) == recording.config.num_chirps

    def test_echo_extraction_yield(self, pipeline, recording):
        filtered = pipeline.preprocess(recording.waveform)
        echoes = pipeline.extract_echoes(filtered)
        assert len(echoes) >= 0.8 * recording.config.num_chirps

    def test_absorption_curve_shape_and_normalisation(self, pipeline, recording):
        filtered = pipeline.preprocess(recording.waveform)
        echoes = pipeline.extract_echoes(filtered)
        curve = pipeline.mean_absorption_curve(echoes)
        assert curve.size == pipeline.config.features.num_curve_bins
        assert np.max(curve) == pytest.approx(1.0)
        assert np.all(curve >= 0.0)

    def test_mean_curve_requires_echoes(self, pipeline):
        with pytest.raises(NoEchoFoundError):
            pipeline.mean_absorption_curve([])


class TestProbeBand:
    # At the default 384 kHz upsampled rate an 8192-point FFT has a bin
    # every 46.875 Hz: 16 000-16 010 Hz holds none, 16 000-16 040 Hz one.
    @pytest.mark.parametrize("high_hz", [16_010.0, 16_040.0])
    def test_band_with_fewer_than_two_bins_is_a_configuration_error(self, high_hz):
        features = FeatureVectorConfig(band_low_hz=16_000.0, band_high_hz=high_hz)
        with pytest.raises(ConfigurationError, match="FFT bin"):
            EarSonarPipeline(EarSonarConfig(features=features))

    def test_narrow_band_with_two_bins_builds(self):
        features = FeatureVectorConfig(band_low_hz=16_000.0, band_high_hz=16_080.0)
        EarSonarPipeline(EarSonarConfig(features=features))


class TestProcess:
    def test_feature_vector_length(self, pipeline, recording):
        out = pipeline.process(recording)
        assert out.features.size == 105
        assert np.all(np.isfinite(out.features))

    def test_metadata_propagated(self, pipeline, recording):
        out = pipeline.process(recording)
        assert out.participant_id == recording.participant_id
        assert out.true_state is recording.state
        assert out.day == recording.day
        assert 0.0 < out.echo_yield <= 1.0

    def test_silence_raises_no_echo(self, pipeline, recording):
        silent = Recording(
            waveform=np.zeros_like(recording.waveform),
            sample_rate=recording.sample_rate,
            participant_id="X",
            day=0.0,
            state=recording.state,
            config=recording.config,
        )
        with pytest.raises(NoEchoFoundError):
            pipeline.process(silent)

    def test_effusion_absorbs_more_than_clear(self, pipeline, recording, clear_recording):
        """The dip region loses more energy with fluid (paper Fig. 2)."""
        sick = pipeline.process(recording)
        clear = pipeline.process(clear_recording)
        grid = pipeline.config.features.frequency_grid()
        dip_zone = (grid > 16_500.0) & (grid < 19_000.0)
        assert sick.curve[dip_zone].min() < clear.curve[dip_zone].min()

    def test_timed_process_returns_latencies(self, pipeline, recording):
        # Warm-up run first: the very first call pays one-time costs
        # (lazy imports, allocator warm-up) that distort stage timing.
        pipeline.timed_process(recording)
        out, latencies = pipeline.timed_process(recording)
        assert out.features.size == 105
        assert latencies.bandpass_ms > 0.0
        assert latencies.feature_extract_ms > 0.0
        assert latencies.inference_ms == 0.0
        # The paper's Table II shape: feature extraction dominates.
        assert latencies.feature_extract_ms > latencies.bandpass_ms

    def test_deterministic_on_same_recording(self, pipeline, recording):
        a = pipeline.process(recording)
        b = pipeline.process(recording)
        np.testing.assert_allclose(a.features, b.features)


class TestSessionConsistency:
    def test_same_participant_curves_correlate(self, pipeline, participant, rng):
        """Fig. 9(a-b): repeated sessions of one clear ear are consistent."""
        from repro.signal.correlation import pearson
        from repro.simulation.session import record_session

        cfg = SessionConfig(duration_s=0.25)
        curves = []
        for _ in range(3):
            rec = record_session(participant, 19.5, cfg, rng)
            curves.append(pipeline.process(rec).curve)
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                assert pearson(curves[i], curves[j]) > 0.95
