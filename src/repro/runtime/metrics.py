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
lock around its sketch — so both ``metrics.observe(name, v)`` and the
direct ``metrics.histogram(name).observe(v)`` path mutate under a lock.

Memory and accuracy: a histogram is one
:class:`~repro.obs.sketch.QuantileSketch`, the same mergeable
distribution the fleet-health windows use, so its memory is bounded by
the bucket grid (at most ``2 * MAX_INDEX + 1`` buckets) however long
the run.  ``count``, ``total``, ``mean`` and ``max`` are exact; p50 /
p95 / p99 are within a factor ``sqrt(GROWTH)`` (about 7.3%) of the
order statistic at rank ``floor(q * (n - 1))`` for magnitudes of at
least ``MIN_VALUE`` (1e-3).
"""

from __future__ import annotations

import threading

from ..obs.sketch import QuantileSketch

__all__ = ["Histogram", "RuntimeMetrics"]


class Histogram:
    """Latency histogram backed by one mergeable quantile sketch.

    ``count`` / ``total`` / ``max`` are exact; percentiles carry the
    sketch's relative error (see the module docstring).  All mutation
    and reads take the histogram's own lock, so direct
    ``histogram(name).observe(...)`` calls are as safe as going
    through the registry.
    """

    __slots__ = ("_lock", "_sketch")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        """Record one observation (e.g. a latency in milliseconds)."""
        value = float(value)
        with self._lock:
            self._sketch.observe(value)

    @property
    def count(self) -> int:
        """Exact number of observations."""
        with self._lock:
            return self._sketch.count

    @property
    def total(self) -> float:
        """Exact sum of all observations."""
        with self._lock:
            return self._sketch.total

    def percentile(self, q: float) -> float:
        """``q``-th percentile (0-100) estimate; 0.0 when empty."""
        with self._lock:
            return self._sketch.quantile(q / 100.0) if self._sketch.count else 0.0

    def summary(self) -> dict[str, float]:
        """Count / mean / p50 / p95 / p99 / max digest (all zeros when empty)."""
        with self._lock:
            sketch = self._sketch
            if sketch.count == 0:
                return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
            return {
                "count": sketch.count,
                "mean": sketch.mean,
                "p50": sketch.quantile(0.50),
                "p95": sketch.quantile(0.95),
                "p99": sketch.quantile(0.99),
                "max": sketch.vmax,
            }


class RuntimeMetrics:
    """Registry of named counters and histograms for one batch run.

    The canonical counter and histogram names the runtime emits are
    defined once in :mod:`repro.obs.names`
    (``CANONICAL_COUNTERS`` / ``CANONICAL_HISTOGRAMS``) and asserted by
    an end-to-end emission test; the highlights:

    - ``recordings.submitted`` / ``recordings.ok`` / ``recordings.failed``
    - ``pipeline.calls`` — actual DSP invocations (cache misses only)
    - ``cache.hits`` / ``cache.misses``
    - ``cache.corrupt`` — unreadable disk entries evicted (each also a miss)
    - ``chunks.dispatched`` — pool tasks submitted by the parallel path
    - ``executor.serial_fallback`` — parallel run degraded to serial
    - ``executor.timeouts`` — pool tasks that missed their deadline
    - ``executor.worker_failures`` — chunks lost to crashes/injected faults
    - ``executor.pool_starts`` — worker pools created (per run, or one
      plus one per fault while the executor is open)
    - ``quality.degraded`` — results the pipeline tagged with quality
      reasons (``corrupt_chirps``, ``calibration_unstable``,
      ``non_finite``)
    - histograms ``recording_ms``, ``stage.bandpass_ms``,
      ``stage.features_ms``, ``batch_ms``, ``calib.offset_db``
      (per-recording calibration offset estimate; 0.0 whenever the
      calibration stage is disabled)

    Echo-conditional counters (``ECHO_CONDITIONAL_COUNTERS``) appear
    only on reverberant inputs: ``reverb.taps_removed`` — early
    reflections subtracted by the rake stage.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}

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
                hist = self._histograms[name] = Histogram()
            return hist

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
