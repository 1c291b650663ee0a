"""Unit tests for the runtime metrics registry."""

import math
import threading

import numpy as np
import pytest

from repro.obs.sketch import GROWTH, MAX_INDEX
from repro.runtime.metrics import Histogram, RuntimeMetrics


class TestHistogram:
    def test_empty_summary_is_zeros(self):
        s = Histogram().summary()
        assert s == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

    def test_percentiles_are_exact(self):
        # What stays exact: count, total, mean and max always, and every
        # percentile of a degenerate stream (the estimate is clamped into
        # the exact [min, max]); other percentiles sit within the sketch
        # bound of the order statistic.
        bound = math.sqrt(GROWTH) * (1.0 + 1e-12)
        hist = Histogram()
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.total == 5050.0
        assert 50.0 / bound <= hist.percentile(50) <= 50.0 * bound
        assert 99.0 / bound <= hist.percentile(99) <= 99.0 * bound
        s = hist.summary()
        assert s["count"] == 100
        assert s["mean"] == 50.5
        assert s["max"] == 100.0
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]

        constant = Histogram()
        for _ in range(10):
            constant.observe(7.25)
        for q in (0, 50, 95, 99, 100):
            assert constant.percentile(q) == 7.25

    def test_percentiles_are_within_the_sketch_bound(self):
        # The stated tolerance: percentile(q) lies in [min, max] and
        # within a factor sqrt(GROWTH) of the order statistic at rank
        # floor(q/100 * (n - 1)); count, total, mean and max are exact.
        bound = math.sqrt(GROWTH) * (1.0 + 1e-12)
        for n in (3, 100, 10_000):
            values = np.random.default_rng(n).lognormal(mean=2.0, sigma=1.5, size=n)
            hist = Histogram()
            running_total = 0.0
            for v in values:
                hist.observe(float(v))
                running_total += float(v)
            ordered = np.sort(values)
            for q in (0, 50, 95, 99, 100):
                estimate = hist.percentile(q)
                exact = ordered[math.floor(q / 100 * (n - 1))]
                assert ordered[0] <= estimate <= ordered[-1]
                assert exact / bound <= estimate <= exact * bound, (n, q, estimate, exact)
            s = hist.summary()
            assert hist.count == s["count"] == n
            assert hist.total == running_total
            assert s["mean"] == running_total / n
            assert s["max"] == ordered[-1]
            assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]


class TestHistogramReservoir:
    """Long streams: bounded memory, exact count/total/max, safe concurrency."""

    def test_sample_storage_is_bounded_by_cap(self):
        # Thirteen decades of magnitudes, the smallest under MIN_VALUE,
        # fit the sketch's fixed bucket grid.
        hist = Histogram()
        for v in np.geomspace(1e-4, 1e9, 100_000):
            hist.observe(float(v))
        assert hist.count == 100_000
        assert len(hist._sketch.buckets) <= 2 * MAX_INDEX + 1

    def test_count_total_max_stay_exact_beyond_cap(self):
        hist = Histogram()
        values = [float(v) for v in range(1, 2001)]
        for v in values:
            hist.observe(v)
        assert hist.count == 2000
        assert hist.total == pytest.approx(sum(values))
        assert hist.summary()["max"] == 2000.0
        assert hist.summary()["mean"] == pytest.approx(sum(values) / 2000)

    def test_reservoir_percentiles_track_distribution(self):
        # Uniform stream: the median lands near the true median, not
        # near either end, and within the sketch bound of it.
        hist = Histogram()
        for v in range(100_000):
            hist.observe(float(v % 1000))
        p50 = hist.percentile(50)
        assert 300.0 < p50 < 700.0
        bound = math.sqrt(GROWTH) * (1.0 + 1e-12)
        assert 499.0 / bound <= p50 <= 499.0 * bound

    def test_direct_observe_is_locked(self):
        # The documented direct-access path: histogram(name).observe()
        # must mutate under the histogram's own lock.  Hammer it from
        # several threads and check no observation was lost.
        m = RuntimeMetrics()
        hist = m.histogram("contended_ms")
        per_thread, threads = 2_000, 8

        def worker() -> None:
            for v in range(per_thread):
                hist.observe(float(v))

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert hist.count == per_thread * threads
        assert hist.total == threads * sum(range(per_thread))
        assert hist.summary()["max"] == per_thread - 1


class TestRuntimeMetrics:
    def test_counters_accumulate(self):
        m = RuntimeMetrics()
        assert m.counter("recordings.ok") == 0
        m.increment("recordings.ok")
        m.increment("recordings.ok", 4)
        assert m.counter("recordings.ok") == 5

    def test_observe_creates_histograms(self):
        m = RuntimeMetrics()
        m.observe("recording_ms", 10.0)
        m.observe("recording_ms", 20.0)
        assert m.histogram("recording_ms").count == 2

    def test_cache_hit_rate(self):
        m = RuntimeMetrics()
        assert m.cache_hit_rate == 0.0
        m.increment("cache.hits", 3)
        m.increment("cache.misses", 1)
        assert m.cache_hit_rate == pytest.approx(0.75)

    def test_report_is_json_serializable(self):
        import json

        m = RuntimeMetrics()
        m.increment("cache.hits", 2)
        m.increment("cache.misses", 2)
        m.observe("batch_ms", 12.5)
        report = json.loads(json.dumps(m.report()))
        assert report["counters"]["cache.hits"] == 2
        assert report["cache_hit_rate"] == pytest.approx(0.5)
        assert report["histograms"]["batch_ms"]["count"] == 1

    def test_render_mentions_all_counters(self):
        m = RuntimeMetrics()
        m.increment("pipeline.calls", 7)
        text = m.render()
        assert "pipeline.calls" in text
        assert "7" in text
