"""Unit tests for the content-addressed feature cache."""

import dataclasses
import hashlib
import multiprocessing

import numpy as np
import pytest

from repro.core import EarSonarConfig
from repro.core.results import ProcessedRecording
from repro.runtime.cache import FeatureCache, recording_key
from repro.simulation import MeeState


def _processed(seed: int = 0, **overrides) -> ProcessedRecording:
    rng = np.random.default_rng(seed)
    fields = dict(
        features=rng.standard_normal(105),
        curve=rng.standard_normal(64),
        mean_segment=rng.standard_normal(512),
        segment_rate=384_000.0,
        num_events=40,
        num_echoes=37,
        participant_id="P001",
        day=2.5,
        true_state=MeeState.MUCOID,
    )
    fields.update(overrides)
    return ProcessedRecording(**fields)


class TestRecordingKey:
    def test_key_depends_on_waveform_rate_and_config(self, recording):
        fp = EarSonarConfig().fingerprint()
        base = recording_key(recording, fp)
        assert base == recording_key(recording, fp)  # deterministic

        other_wave = dataclasses.replace(
            recording, waveform=recording.waveform + 1e-9
        )
        assert recording_key(other_wave, fp) != base

        other_rate = dataclasses.replace(
            recording, sample_rate=recording.sample_rate * 2
        )
        assert recording_key(other_rate, fp) != base

        other_config = EarSonarConfig(min_echoes=4).fingerprint()
        assert recording_key(recording, other_config) != base

    def test_key_ignores_provenance(self, recording):
        """Content-addressing: identical audio shares a key across children."""
        fp = EarSonarConfig().fingerprint()
        relabelled = dataclasses.replace(
            recording, participant_id="P999", day=17.5
        )
        assert recording_key(relabelled, fp) == recording_key(recording, fp)


class TestMemoryTier:
    def test_roundtrip_and_miss(self):
        cache = FeatureCache()
        assert cache.get("missing") is None
        entry = _processed()
        cache.put("k1", entry)
        assert cache.get("k1") is entry
        assert "k1" in cache

    def test_lru_eviction(self):
        cache = FeatureCache(capacity=2)
        cache.put("a", _processed(1))
        cache.put("b", _processed(2))
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", _processed(3))
        assert cache.get("a") is not None
        assert cache.get("b") is None
        assert cache.get("c") is not None
        assert len(cache) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FeatureCache(capacity=0)

    def test_get_for_restamps_provenance(self, recording):
        cache = FeatureCache()
        fp = EarSonarConfig().fingerprint()
        cache.put(recording_key(recording, fp), _processed(participant_id="P001"))

        twin = dataclasses.replace(recording, participant_id="P777", day=9.5)
        hit = cache.get_for(twin, fp)
        assert hit is not None
        assert hit.participant_id == "P777"
        assert hit.day == 9.5
        assert hit.true_state == twin.state


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        entry = _processed()
        FeatureCache(directory=tmp_path).put("deadbeef", entry)

        reopened = FeatureCache(directory=tmp_path)
        assert "deadbeef" in reopened
        loaded = reopened.get("deadbeef")
        np.testing.assert_array_equal(loaded.features, entry.features)
        np.testing.assert_array_equal(loaded.curve, entry.curve)
        np.testing.assert_array_equal(loaded.mean_segment, entry.mean_segment)
        assert loaded.segment_rate == entry.segment_rate
        assert loaded.num_events == entry.num_events
        assert loaded.num_echoes == entry.num_echoes
        assert loaded.participant_id == entry.participant_id
        assert loaded.day == entry.day
        assert loaded.true_state is MeeState.MUCOID

    def test_every_field_roundtrips(self, tmp_path):
        entry = _processed(
            confidence=0.75,
            num_chirps_dropped=3,
            quality_reasons=("chirps_dropped", "calibration_unstable"),
            calibration_offset_db=1.5,
            num_reflections_removed=7,
        )
        fields = dataclasses.fields(ProcessedRecording)
        for f in fields:
            if f.default is not dataclasses.MISSING:
                assert getattr(entry, f.name) != f.default, f.name
        FeatureCache(directory=tmp_path).put("k", entry)

        loaded = FeatureCache(directory=tmp_path).get("k")
        for f in fields:
            expected, actual = getattr(entry, f.name), getattr(loaded, f.name)
            if isinstance(expected, np.ndarray):
                assert actual.dtype == expected.dtype, f.name
                assert actual.tobytes() == expected.tobytes(), f.name
            else:
                assert actual == expected, f.name
                assert type(actual) is type(expected), f.name

    def test_none_state_roundtrips(self, tmp_path):
        FeatureCache(directory=tmp_path).put("k", _processed(true_state=None))
        assert FeatureCache(directory=tmp_path).get("k").true_state is None

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        FeatureCache(directory=tmp_path).put("k", _processed())
        cache = FeatureCache(directory=tmp_path)
        assert len(cache) == 0
        assert cache.get("k") is not None
        assert len(cache) == 1

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = FeatureCache(directory=tmp_path)
        cache.put("k", _processed())
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get("k") is not None

    def test_single_flat_cache_is_also_multi_writer_safe(self, tmp_path):
        """The underlying FeatureCache staging survives concurrency too."""
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(
                target=_hammer_flat_store, args=(str(tmp_path), w, 5)
            )
            for w in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        cache = FeatureCache(directory=tmp_path)
        for i in range(4):
            entry = cache.get(key_of(i))
            assert entry is not None
        assert cache.corrupt_evictions == 0
        assert not list(tmp_path.glob("*.tmp-*"))  # no stranded staging


def key_of(i: int) -> str:
    return hashlib.sha256(f"entry-{i}".encode()).hexdigest()


def _hammer_flat_store(root: str, worker: int, rounds: int) -> None:
    """Child-process body: four writers store the same keys over and over."""
    cache = FeatureCache(directory=root)
    for round_no in range(rounds):
        for i in range(4):
            cache.put(key_of(i), _processed(worker + round_no))
