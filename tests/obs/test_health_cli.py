"""The ``python -m repro.obs health`` dashboard and its exit codes.

The trajectory file under test is generated in-process by a monitor on
explicit timestamps (no loadgen), so the assertions cover exactly the
CLI contract: exit 0 on a healthy trajectory, exit 3 when alerts are
active (or, with ``--fail-on-fired``, when any fired at all), exit 2 on
an empty file.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import names as obs_names
from repro.obs.__main__ import main as obs_main
from repro.obs.health import HealthMonitor


def write_trajectory(path, *, bad_fraction: float) -> None:
    # 15 s per sample: 40 samples span 600 s, so the clean tail empties
    # both the page's 60 s and the ticket's 300 s short windows before
    # the last snapshot.
    monitor = HealthMonitor(
        now=lambda: 0.0,
        series=(obs_names.HEALTH_REQUESTS, obs_names.HEALTH_REQUEST_MS),
    )
    lines = []
    for i in range(40):
        at = 100.0 + i * 15.0
        good = (i % 40) >= bad_fraction * 40
        monitor.increment(
            obs_names.HEALTH_REQUESTS,
            labels={"tenant": "clinic", "outcome": "ok" if good else "rejected"},
            now=at,
        )
        monitor.observe(
            obs_names.HEALTH_REQUEST_MS, 4.0 + i % 7, labels={"tenant": "clinic"}, now=at
        )
        monitor.slo_sample(obs_names.SLO_AVAILABILITY, good=good, now=at)
        if i % 10 == 9:
            lines.append(json.dumps(monitor.snapshot(at), sort_keys=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestHealthDashboard:
    def test_healthy_trajectory_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "health.jsonl"
        write_trajectory(path, bad_fraction=0.0)
        assert obs_main(["health", str(path)]) == 0
        out = capsys.readouterr().out
        assert obs_names.HEALTH_REQUESTS in out
        assert "tenant=clinic" in out
        assert obs_names.SLO_AVAILABILITY in out

    def test_active_alerts_exit_three(self, tmp_path, capsys):
        path = tmp_path / "health.jsonl"
        # The bad cluster sits at the end of the stream, so the alert
        # is still firing in the final snapshot.
        write_trajectory(path, bad_fraction=1.0)
        assert obs_main(["health", str(path)]) == 3
        assert "fired" in capsys.readouterr().out

    def test_fail_on_fired_catches_resolved_alerts(self, tmp_path):
        path = tmp_path / "health.jsonl"
        # Bad early, clean late: the alert resolves before the final
        # snapshot, so the plain exit is 0 but --fail-on-fired is 3.
        write_trajectory(path, bad_fraction=0.3)
        assert obs_main(["health", str(path)]) == 0
        assert obs_main(["health", str(path), "--fail-on-fired"]) == 3

    def test_empty_trajectory_exits_two(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert obs_main(["health", str(path)]) == 2
