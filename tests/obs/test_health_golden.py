"""Golden health renderings: a seeded stream pins snapshot JSON and Prometheus text.

A few hundred events over several tenants and device models feed a
default-configured :class:`HealthMonitor`: every default series, every
SLO (with a slow phase that fires and resolves the latency alerts), a
device-model label set past the cardinality budget, and signed and
near-zero calibration offsets.  The final ``snapshot()`` JSON and
``prometheus()`` text must match the checked-in files byte for byte,
so any change to the window, sketch or writer that moves a health
number shows up here, and no series may hold more label values per key
than the budget admits.

Tenant ids include a backslash and a double quote, so the goldens pin
label escaping too.  Regenerate (only for an intended rendering
change) with ``PYTHONPATH=src python -m tests.obs.test_health_golden``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.obs import names as obs_names
from repro.obs import health
from repro.obs.health import OVERFLOW_VALUE, HealthMonitor

GOLDEN_SNAPSHOT = Path(__file__).parent / "golden_health_snapshot.json"
GOLDEN_PROM = Path(__file__).parent / "golden_health.prom"

TENANTS = ("clinic-a", "clinic.b", 'lab "north"', "home\\east", "klinik-ü")
#: Past the default 16-values-per-key budget, so overflow rows render.
DEVICES = tuple(f"model-{k:02d}" for k in range(19))
REASONS = ("", "low_snr", "clipped", "echo_dominant")


def seeded_renderings() -> tuple[str, str]:
    """(snapshot JSON, Prometheus text) of the seeded stream."""
    rng = random.Random(1303)
    monitor = HealthMonitor(now=lambda: 0.0)
    at = 1000.0
    for i in range(480):
        at += rng.expovariate(1.0)
        tenant = rng.choice(TENANTS)
        device = rng.choice(DEVICES)
        ok = rng.random() > 0.06
        latency_ms = rng.lognormvariate(5.0, 1.0)
        if 80 <= i < 380:
            latency_ms *= 1000.0  # a slow phase: the latency SLO burns
        offset_db = 0.0 if i % 37 == 0 else rng.gauss(0.0, 1.5)
        reason = rng.choice(REASONS)
        monitor.increment(
            obs_names.HEALTH_REQUESTS,
            labels={"tenant": tenant, "outcome": "ok" if ok else "error"},
            now=at,
        )
        monitor.observe(
            obs_names.HEALTH_REQUEST_MS, latency_ms, labels={"tenant": tenant}, now=at
        )
        monitor.observe(obs_names.HEALTH_RECORDING_MS, latency_ms * 0.25, now=at)
        monitor.observe(
            obs_names.HEALTH_CALIB_OFFSET_DB,
            offset_db,
            labels={"device_model": device},
            now=at,
        )
        monitor.increment(
            obs_names.HEALTH_RAKE_TAPS,
            rng.randrange(0, 4),
            labels={"device_model": device},
            now=at,
        )
        monitor.increment(
            obs_names.HEALTH_SCREENINGS,
            labels={"verdict": "accept" if not reason else "degrade", "reason": reason},
            now=at,
        )
        monitor.slo_sample(obs_names.SLO_AVAILABILITY, good=ok, now=at)
        monitor.slo_sample(obs_names.SLO_LATENCY, value_ms=latency_ms, now=at)
        monitor.slo_sample(obs_names.SLO_QUALITY, good=reason != "clipped", now=at)
        if i % 30 == 29:
            monitor.evaluate(at)
    snapshot = json.dumps(monitor.snapshot(at), indent=2, sort_keys=True) + "\n"
    return snapshot, monitor.prometheus(at)


def test_snapshot_and_prometheus_match_the_goldens():
    snapshot, prom = seeded_renderings()
    budget = health.MAX_VALUES_PER_KEY
    for name, rows in json.loads(snapshot)["series"].items():
        for key in rows[0]["labels"]:
            values = {row["labels"][key] for row in rows} - {OVERFLOW_VALUE}
            assert len(values) <= budget, (name, key, sorted(values))
    assert snapshot == GOLDEN_SNAPSHOT.read_text(encoding="utf-8")
    assert prom == GOLDEN_PROM.read_text(encoding="utf-8")


if __name__ == "__main__":
    snapshot, prom = seeded_renderings()
    GOLDEN_SNAPSHOT.write_text(snapshot, encoding="utf-8")
    GOLDEN_PROM.write_text(prom, encoding="utf-8")
