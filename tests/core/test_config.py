"""Tests for the bundled EarSonar configuration."""

import dataclasses

import pytest

from repro.core.config import (
    BandpassConfig,
    DetectorConfig,
    EarSonarConfig,
    config_fingerprint,
)
from repro.errors import ConfigurationError
from repro.signal.chirp import ChirpDesign
from repro.signal.parity import EchoSegmenterConfig


class TestBandpassConfig:
    def test_defaults_bracket_probe_band(self):
        cfg = BandpassConfig()
        assert cfg.low_hz < 16_000.0
        assert cfg.high_hz > 20_000.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BandpassConfig(order=0)
        with pytest.raises(ConfigurationError):
            BandpassConfig(low_hz=21_000.0, high_hz=15_000.0)


class TestDetectorConfig:
    def test_paper_defaults(self):
        cfg = DetectorConfig()
        assert cfg.num_states == 4
        assert cfg.selected_features == 25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_states": 1},
            {"clusters_per_state": 0},
            {"selected_features": 0},
            {"kmeans_restarts": 0},
            {"outlier_loops": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            DetectorConfig(**kwargs)


class TestEarSonarConfig:
    def test_default_is_consistent(self):
        EarSonarConfig()  # must not raise

    def test_segmenter_rate_must_match_chirp(self):
        with pytest.raises(ConfigurationError):
            EarSonarConfig(
                chirp=ChirpDesign(sample_rate=48_000.0),
                segmenter=EchoSegmenterConfig(sample_rate=44_100.0),
            )

    def test_bandpass_must_contain_sweep(self):
        with pytest.raises(ConfigurationError):
            EarSonarConfig(bandpass=BandpassConfig(low_hz=17_000.0, high_hz=21_000.0))

    def test_min_echoes_positive(self):
        with pytest.raises(ConfigurationError):
            EarSonarConfig(min_echoes=0)


def _leaf_paths(obj, prefix=""):
    """Yield (dotted_path, value) for every non-dataclass config field."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, prefix + f.name + ".")
        else:
            yield prefix + f.name, value


def _replace_at(config, path, value):
    """Rebuild ``config`` with the field at ``path`` set to ``value``."""
    head, _, rest = path.partition(".")
    if not rest:
        return dataclasses.replace(config, **{head: value})
    return dataclasses.replace(
        config, **{head: _replace_at(getattr(config, head), rest, value)}
    )


def _perturbations(value):
    """Candidate replacement values, tried until one passes validation."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, max(1, value - 1)]
    if isinstance(value, float):
        return [value * 1.001 if value else 1e-3, value + 1e-3, value * 0.999]
    if isinstance(value, str):
        # segmenter.method is an enumerated string; swap to the other
        # valid value, else append a character.
        swaps = {"parity": "peak", "peak": "parity"}
        return [swaps.get(value, value + "x")]
    raise AssertionError(f"no perturbation rule for {type(value).__name__}")


class TestConfigFingerprint:
    def test_fresh_defaults_agree(self):
        assert EarSonarConfig().fingerprint() == EarSonarConfig().fingerprint()

    def test_is_hex_digest(self):
        fp = EarSonarConfig().fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # must parse as hex

    def test_subconfig_fingerprints_work_standalone(self):
        assert config_fingerprint(DetectorConfig()) != config_fingerprint(
            DetectorConfig(seed=1)
        )

    def test_every_field_change_changes_fingerprint(self):
        """Perturbing any leaf field anywhere in the tree must re-key the cache.

        ``chirp.sample_rate`` and ``segmenter.sample_rate`` are
        constrained to match, so they are perturbed jointly; every other
        field is perturbed alone (skipping candidates the validators
        reject).
        """
        default = EarSonarConfig()
        baseline = default.fingerprint()
        joint = {"chirp.sample_rate", "segmenter.sample_rate"}
        fingerprints = {}
        for path, value in _leaf_paths(default):
            if path in joint:
                continue
            for candidate in _perturbations(value):
                try:
                    variant = _replace_at(default, path, candidate)
                except (ConfigurationError, ValueError):
                    continue
                fingerprints[path] = variant.fingerprint()
                break
            else:
                raise AssertionError(f"no valid perturbation found for {path}")

        # The two sample rates are constrained to match, so the variant
        # must swap both sub-configs in a single replace.
        resampled = dataclasses.replace(
            default,
            chirp=dataclasses.replace(default.chirp, sample_rate=96_000.0),
            segmenter=dataclasses.replace(default.segmenter, sample_rate=96_000.0),
        )
        fingerprints["chirp.sample_rate+segmenter.sample_rate"] = (
            resampled.fingerprint()
        )

        # A healthy sweep covers the whole tree (29 leaves at seed time).
        assert len(fingerprints) >= 25
        assert baseline not in fingerprints.values()
        assert len(set(fingerprints.values())) == len(fingerprints)
