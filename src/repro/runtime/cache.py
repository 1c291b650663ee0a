"""Content-addressed cache of pipeline outputs.

Re-running an experiment, re-fitting a screener, or benchmarking twice
re-executes the exact same DSP on the exact same waveforms.  The cache
keys each :class:`~repro.core.results.ProcessedRecording` by the SHA-256
of the raw waveform bytes (plus sample rate) and the pipeline
configuration's :func:`~repro.core.config.config_fingerprint`, so

- identical audio under an identical config is computed once, ever;
- any config change — however deep in the tree — misses cleanly.

The key is *content*-addressed on purpose: provenance (participant id,
day, ground truth) is not hashed, and on a hit the cached result is
re-stamped with the requesting recording's provenance.  Two children
with bit-identical waveforms (it happens constantly in seeded
simulations) therefore share the DSP but keep their own labels.

Two tiers: an in-memory LRU (bounded by entry count) and an optional
on-disk ``.npz`` store that survives processes, making warm re-runs of
whole studies skip signal processing entirely.

The disk tier is safe for many *writers* as well as many readers:
every write lands in a per-process temporary file (named with the
writer's PID, so two processes storing the same key never interleave
bytes) and is published with an atomic rename, so the last writer of
a key wins and no reader ever sees half an entry.

The disk tier is *validated* on load: every entry carries a format
version and a SHA-256 payload checksum, and anything that fails to
open, parse, or verify — a truncated npz, a stray file, a half-written
entry from a killed process, bit rot — is evicted and reported as a
miss (counted under ``cache.corrupt``), never raised to the caller.
The science result is recomputed; a corrupted cache can cost time but
not correctness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import zipfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..core.results import ProcessedRecording
from ..errors import CacheCorruptionError
from ..obs import names as obs_names
from ..simulation.effusion import MeeState
from ..simulation.session import Recording
from .metrics import RuntimeMetrics

__all__ = ["recording_key", "FeatureCache"]

#: Bumped whenever the on-disk entry schema changes; entries written by
#: other versions are treated as corrupt (evicted, recomputed).
CACHE_FORMAT_VERSION = 3

#: Exceptions that mean "this disk entry is unreadable", not "the
#: program is broken": bad zip containers, missing/odd fields, short
#: reads, filesystem errors.  Kept explicit so genuine programming
#: errors still propagate out of the cache.
_CORRUPTION_ERRORS = (
    zipfile.BadZipFile,
    KeyError,
    ValueError,
    EOFError,
    OSError,
)


def recording_key(recording: Recording, config_fingerprint: str) -> str:
    """Cache key: hash of waveform content, sample rate, and config."""
    digest = hashlib.sha256()
    waveform = np.ascontiguousarray(recording.waveform, dtype=np.float64)
    digest.update(waveform.tobytes())
    digest.update(repr(float(recording.sample_rate)).encode("utf-8"))
    digest.update(config_fingerprint.encode("utf-8"))
    return digest.hexdigest()


class FeatureCache:
    """Two-tier (memory LRU + optional disk) store of pipeline outputs.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries; the least recently used entry is
        evicted beyond it.  ``None`` means unbounded.
    directory:
        Optional directory for ``.npz`` persistence.  Entries evicted
        from memory remain on disk and are transparently reloaded
        (and re-promoted to memory) on the next hit.
    metrics:
        Optional :class:`RuntimeMetrics` registry; when present the
        cache counts corrupt-entry evictions under ``cache.corrupt``.
        :class:`~repro.runtime.executor.BatchExecutor` wires its own
        registry in when the cache has none.
    """

    def __init__(
        self,
        capacity: int | None = 4096,
        directory: str | Path | None = None,
        metrics: RuntimeMetrics | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics
        #: Corrupt disk entries evicted so far (also mirrored to
        #: ``metrics`` when a registry is attached).
        self.corrupt_evictions = 0
        self._entries: OrderedDict[str, ProcessedRecording] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries or self._disk_path_if_exists(key) is not None

    # -- lookup / store ------------------------------------------------

    def get(self, key: str) -> ProcessedRecording | None:
        """Cached result for ``key``, or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        path = self._disk_path_if_exists(key)
        if path is None:
            return None
        try:
            entry = self._load(path)
        except CacheCorruptionError:
            self._evict_corrupt(path)
            return None
        self._store_memory(key, entry)
        return entry

    def get_for(
        self, recording: Recording, config_fingerprint: str
    ) -> ProcessedRecording | None:
        """Content-addressed lookup, re-stamped with ``recording``'s provenance."""
        entry = self.get(recording_key(recording, config_fingerprint))
        if entry is None:
            return None
        return dataclasses.replace(
            entry,
            participant_id=recording.participant_id,
            day=recording.day,
            true_state=recording.state,
        )

    def put(self, key: str, processed: ProcessedRecording) -> None:
        """Store a pipeline output under ``key`` (memory and disk)."""
        self._store_memory(key, processed)
        if self.directory is not None:
            self._save(self.directory / f"{key}.npz", processed)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (disk entries remain)."""
        self._entries.clear()

    # -- internals -----------------------------------------------------

    def _store_memory(self, key: str, processed: ProcessedRecording) -> None:
        self._entries[key] = processed
        self._entries.move_to_end(key)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def _disk_path_if_exists(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        path = self.directory / f"{key}.npz"
        return path if path.exists() else None

    def _evict_corrupt(self, path: Path) -> None:
        """Remove an unreadable disk entry and account for it as a miss."""
        path.unlink(missing_ok=True)
        self.corrupt_evictions += 1
        if self.metrics is not None:
            self.metrics.increment(obs_names.METRIC_CACHE_CORRUPT)

    @staticmethod
    def _payload_checksum(
        features: np.ndarray, curve: np.ndarray, mean_segment: np.ndarray
    ) -> str:
        digest = hashlib.sha256()
        for array in (features, curve, mean_segment):
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        return digest.hexdigest()

    @staticmethod
    def tmp_path_for(path: Path) -> Path:
        """Per-process staging path for one entry's write.

        The writer's PID is part of the name, so two processes storing
        the same key stage into *different* files and the last atomic
        rename wins — concurrent writers can waste a write but can
        never interleave bytes into a shared tmp.  The name ends in a
        non-``.npz`` suffix, so a staging file is never mistaken for an
        entry, even one orphaned by a killed writer.
        """
        return path.with_name(f"{path.name}.tmp-{os.getpid()}")

    def _save(self, path: Path, processed: ProcessedRecording) -> None:
        # Every field is written under its own name; only the enum and
        # the tuple of reason codes need a storable form.
        fields = {
            f.name: getattr(processed, f.name)
            for f in dataclasses.fields(ProcessedRecording)
        }
        fields["true_state"] = processed.true_state.value if processed.true_state else ""
        fields["quality_reasons"] = np.array(processed.quality_reasons, dtype=np.str_)
        checksum = self._payload_checksum(
            processed.features, processed.curve, processed.mean_segment
        )
        tmp = self.tmp_path_for(path)
        # An open handle (not a path) keeps numpy from appending a
        # second ``.npz`` to the staging suffix.
        with open(tmp, "wb") as stream:
            np.savez(
                stream,
                cache_version=np.int64(CACHE_FORMAT_VERSION),
                checksum=np.str_(checksum),
                **fields,
            )
        tmp.replace(path)

    @classmethod
    def _load(cls, path: Path) -> ProcessedRecording:
        """Read and *validate* one disk entry.

        Raises :class:`CacheCorruptionError` for anything unreadable or
        failing verification; the caller evicts and treats it as a miss.
        """
        try:
            with np.load(path) as data:
                if int(data["cache_version"]) != CACHE_FORMAT_VERSION:
                    raise CacheCorruptionError(
                        f"cache entry {path.name} has version "
                        f"{int(data['cache_version'])}, "
                        f"expected {CACHE_FORMAT_VERSION}"
                    )
                fields = {}
                for f in dataclasses.fields(ProcessedRecording):
                    value = np.array(data[f.name])
                    fields[f.name] = value if value.ndim else value.item()
                checksum = cls._payload_checksum(
                    fields["features"], fields["curve"], fields["mean_segment"]
                )
                if checksum != str(data["checksum"]):
                    raise CacheCorruptionError(
                        f"cache entry {path.name} failed checksum verification"
                    )
                state = fields["true_state"]
                fields["true_state"] = MeeState(state) if state else None
                fields["quality_reasons"] = tuple(
                    str(r) for r in fields["quality_reasons"]
                )
                return ProcessedRecording(**fields)
        except CacheCorruptionError:
            raise
        except _CORRUPTION_ERRORS as exc:
            raise CacheCorruptionError(
                f"cache entry {path.name} is unreadable: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
