"""Lightweight runtime observability: counters and latency histograms.

A production batch runtime needs to answer three questions cheaply —
how much work ran, how long it took (with tail percentiles, since a
screening service cares about the p99 a caregiver experiences), and how
often the cache saved a pipeline invocation.  :class:`RuntimeMetrics`
is a small in-process registry answering exactly those; it has no
external dependencies and serializes to a plain dict so benchmarks and
the CLI can dump it as JSON.  The Prometheus text exposition of a
registry comes from :func:`repro.obs.export.prometheus_text`.

Thread safety: the registry lock guards the counter map and the
histogram directory, and every :class:`Histogram` carries its *own*
lock around its sample state — so both ``metrics.observe(name, v)``
and the direct ``metrics.histogram(name).observe(v)`` path mutate
under a lock (the latter used to bypass locking entirely).

Memory: histograms keep exact samples up to a configurable cap
(default :data:`DEFAULT_MAX_SAMPLES`) and switch to uniform reservoir
sampling beyond it, so percentiles stay exact for ordinary runs while
a million-recording batch cannot grow the registry without bound.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["DEFAULT_MAX_SAMPLES", "Histogram", "RuntimeMetrics"]

#: Sample cap above which a histogram degrades to reservoir sampling.
#: 8192 doubles comfortably past any single study in the test suite
#: while bounding a histogram at 64 KiB of floats.
DEFAULT_MAX_SAMPLES = 8192

#: 64-bit LCG constants (Knuth MMIX) for the reservoir's deterministic
#: index stream — telemetry must not perturb (or depend on) any science
#: RNG, so the histogram brings its own fixed-seed generator.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_LCG_SEED = 0x9E3779B97F4A7C15


class Histogram:
    """Latency histogram with exact-then-reservoir percentile summaries.

    Up to ``max_samples`` observations are kept verbatim, so small-run
    percentiles are exact.  Beyond the cap, new observations replace
    stored ones via uniform reservoir sampling (Algorithm R with a
    deterministic in-object LCG), keeping an unbiased fixed-size sample
    of the full stream; ``count`` / ``total`` / ``max`` remain exact
    regardless.  All mutation and reads take the histogram's own lock,
    so direct ``histogram(name).observe(...)`` calls are as safe as
    going through the registry.
    """

    __slots__ = ("_lock", "_samples", "_count", "_total", "_max", "_max_samples", "_lcg")

    def __init__(self, max_samples: int | None = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError(f"max_samples must be >= 1 or None, got {max_samples}")
        self._lock = threading.Lock()
        self._samples: list[float] = []
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._max_samples = max_samples
        self._lcg = _LCG_SEED

    def observe(self, value: float) -> None:
        """Record one observation (e.g. a latency in milliseconds)."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if value > self._max or self._count == 1:
                self._max = value
            cap = self._max_samples
            if cap is None or len(self._samples) < cap:
                self._samples.append(value)
                return
            # Algorithm R: keep each of the N seen values in the
            # reservoir with probability cap / N.
            self._lcg = (self._lcg * _LCG_MULT + _LCG_INC) & _LCG_MASK
            slot = (self._lcg >> 16) % self._count
            if slot < cap:
                self._samples[slot] = value

    @property
    def count(self) -> int:
        """Exact number of observations (not bounded by the reservoir)."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Exact sum of all observations."""
        with self._lock:
            return self._total

    @property
    def max_samples(self) -> int | None:
        """The reservoir cap this histogram was built with."""
        return self._max_samples

    @property
    def saturated(self) -> bool:
        """True once the reservoir has started replacing samples."""
        with self._lock:
            return self._max_samples is not None and self._count > self._max_samples

    def percentile(self, q: float) -> float:
        """``q``-th percentile (0-100): exact below the cap, else sampled."""
        with self._lock:
            if not self._samples:
                return 0.0
            return float(np.percentile(np.asarray(self._samples), q))

    def summary(self) -> dict[str, float]:
        """Count / mean / p50 / p95 / p99 / max digest.

        ``count``, ``mean``, and ``max`` are always exact; the
        percentiles come from the (possibly reservoir-sampled) stored
        samples.
        """
        with self._lock:
            if self._count == 0:
                return {
                    "count": 0,
                    "mean": 0.0,
                    "p50": 0.0,
                    "p95": 0.0,
                    "p99": 0.0,
                    "max": 0.0,
                }
            data = np.asarray(self._samples)
            p50, p95, p99 = np.percentile(data, [50.0, 95.0, 99.0])
            return {
                "count": int(self._count),
                "mean": float(self._total / self._count),
                "p50": float(p50),
                "p95": float(p95),
                "p99": float(p99),
                "max": float(self._max),
            }


class RuntimeMetrics:
    """Registry of named counters and histograms for one batch run.

    The canonical counter and histogram names the runtime emits are
    defined once in :mod:`repro.obs.names`
    (``CANONICAL_COUNTERS`` / ``CANONICAL_HISTOGRAMS``) and asserted by
    an end-to-end emission test; the highlights:

    - ``recordings.submitted`` / ``recordings.ok`` / ``recordings.failed``
    - ``recordings.retried`` — extra attempts granted by the retry policy
    - ``pipeline.calls`` — actual DSP invocations (cache misses only)
    - ``cache.hits`` / ``cache.misses``
    - ``cache.corrupt`` — unreadable disk entries evicted (each also a miss)
    - ``chunks.dispatched`` — pool tasks submitted by the parallel path
    - ``executor.serial_fallback`` — parallel run degraded to serial
    - ``executor.timeouts`` — pool tasks that missed their deadline
    - ``executor.worker_failures`` — chunks lost to crashes/injected faults
    - ``executor.chunks_skipped`` — chunks quarantined by an open breaker
    - ``breaker.opened`` — circuit-breaker open transitions
    - ``quality.degraded`` / ``quality.rejected`` — quality-gate verdicts
    - ``shm.segments_created`` / ``shm.segments_released`` — zero-copy
      arena segment lifecycle (always balanced by batch end)
    - ``shm.bytes_saved`` — waveform bytes handed off by reference
      instead of being pickled into pool tasks
    - histograms ``recording_ms``, ``stage.bandpass_ms``,
      ``stage.features_ms``, ``batch_ms``, ``shm.handoff_ms`` (arena
      packing latency per chunk), ``calib.offset_db`` (per-recording
      calibration offset estimate; 0.0 whenever the calibration stage
      is disabled)

    Degraded-path counters (``SHM_DEGRADED_COUNTERS``) appear only when
    shared memory misbehaves: ``shm.fallbacks`` — chunks that reverted
    to pickled handoff; ``shm.orphans_cleaned`` — dead-owner segments
    reclaimed from ``/dev/shm``.

    Echo-conditional counters (``ECHO_CONDITIONAL_COUNTERS``) appear
    only on reverberant or miscalibrated inputs: ``reverb.taps_removed``
    — early reflections subtracted by the rake stage;
    ``quality.echo_dominant`` — gate outcomes carrying the
    ``echo_dominant`` reason.
    """

    def __init__(self, histogram_max_samples: int | None = DEFAULT_MAX_SAMPLES) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}
        self._histogram_max_samples = histogram_max_samples

    # -- counters ------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- histograms ----------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one observation in the named histogram."""
        self.histogram(name).observe(value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram (created empty on first access).

        The returned object locks internally, so calling
        ``.observe(...)`` on it directly is safe.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(self._histogram_max_samples)
            return hist

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Context manager recording the block's wall time in ms."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, (time.perf_counter() - start) * 1e3)

    # -- derived views -------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 with no lookups)."""
        hits = self.counter("cache.hits")
        misses = self.counter("cache.misses")
        total = hits + misses
        return hits / total if total else 0.0

    def report(self) -> dict:
        """Serializable snapshot: counters, histogram digests, rates."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        digests = {name: hist.summary() for name, hist in histograms.items()}
        hits = counters.get("cache.hits", 0)
        misses = counters.get("cache.misses", 0)
        lookups = hits + misses
        return {
            "counters": counters,
            "histograms": digests,
            "cache_hit_rate": hits / lookups if lookups else 0.0,
        }

    def render(self) -> str:
        """Human-readable multi-line report (CLI output)."""
        report = self.report()
        lines = ["counters:"]
        for name in sorted(report["counters"]):
            lines.append(f"  {name:<28} {report['counters'][name]}")
        if report["histograms"]:
            lines.append("histograms (ms):")
            for name in sorted(report["histograms"]):
                s = report["histograms"][name]
                lines.append(
                    f"  {name:<28} n={s['count']:<5} mean={s['mean']:.2f} "
                    f"p50={s['p50']:.2f} p95={s['p95']:.2f} p99={s['p99']:.2f}"
                )
        lines.append(f"cache hit rate: {100.0 * report['cache_hit_rate']:.1f}%")
        return "\n".join(lines)
