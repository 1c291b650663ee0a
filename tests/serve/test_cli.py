"""CLI surface: ``python -m repro.serve`` serve and loadgen commands."""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.__main__ import main as obs_main
from repro.serve.__main__ import main

#: Specs that parse as JSON but are not a screenable request.
BAD_SPECS = ['{"seed": "abc"}', "[1, 2]", '{"day": "nan"}']


class TestLoadgen:
    def test_virtual_clock_run_is_lossless_and_reported(self, tmp_path):
        report_path = tmp_path / "report.json"
        exit_code = main(
            [
                "loadgen",
                "--requests", "10",
                "--tenants", "2",
                "--rate", "100",
                "--seed", "7",
                "--pool", "3",
                "--duration", "0.05",
                "--report", str(report_path),
            ]
        )
        assert exit_code == 0
        report = json.loads(report_path.read_text())
        assert report["clock"] == "virtual"
        assert report["requests"] == 10
        assert report["lost"] == 0
        assert report["responded"] + sum(report["rejected"].values()) == 10
        assert set(report["per_tenant"]) == {"tenant-0", "tenant-1"}
        assert report["latency_ms"]["p95"] >= 0.0

    def test_same_seed_same_outcome_counts(self, tmp_path):
        def counts(run_id):
            path = tmp_path / f"r{run_id}.json"
            assert (
                main(
                    [
                        "loadgen",
                        "--requests", "8",
                        "--rate", "50",
                        "--seed", "123",
                        "--pool", "2",
                        "--duration", "0.05",
                        "--report", str(path),
                    ]
                )
                == 0
            )
            report = json.loads(path.read_text())
            return (
                report["responded"],
                report["ok"],
                report["quarantined"],
                report["rejected"],
            )

        assert counts(1) == counts(2)

    def test_chaos_run_still_answers_every_request(self, tmp_path):
        report_path = tmp_path / "chaos.json"
        exit_code = main(
            [
                "loadgen",
                "--chaos",
                "--requests", "6",
                "--rate", "50",
                "--seed", "3",
                "--pool", "2",
                "--duration", "0.05",
                "--report", str(report_path),
            ]
        )
        assert exit_code == 0
        report = json.loads(report_path.read_text())
        assert report["lost"] == 0
        # Injected pool faults quarantine their chunk, never drop it.
        assert report["quarantined"] >= 1
        assert report["responded"] == report["requests"]

    def test_cache_dir_answers_a_rerun_from_disk(self, tmp_path):
        def report(run_id):
            path = tmp_path / f"cached-{run_id}.json"
            argv = [
                "loadgen",
                "--requests", "8",
                "--rate", "50",
                "--seed", "5",
                "--pool", "2",
                "--duration", "0.05",
                "--cache-dir", str(tmp_path / "cache"),
                "--report", str(path),
            ]
            assert main(argv) == 0
            return json.loads(path.read_text())

        first, second = report(1), report(2)
        assert first["counters"].get("cache.misses", 0) > 0
        assert second["responded"] == 8
        assert second["counters"]["cache.hits"] == second["responded"]
        assert "cache.misses" not in second["counters"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--rate", "0"),
            ("--rate", "-5"),
            ("--rate", "nan"),
            ("--rate", "inf"),
            ("--requests", "0"),
            ("--pool", "0"),
            ("--tenants", "0"),
            ("--duration", "nan"),
            ("--duration", "inf"),
            ("--duration", "0"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_traffic_flag_is_refused_before_any_request(
        self, tmp_path, flag, value
    ):
        report_path = tmp_path / "refused.json"
        with pytest.raises(ConfigurationError, match=flag):
            main(["loadgen", flag, value, "--report", str(report_path)])
        assert not report_path.exists()

    def test_virtual_latency_charges_modeled_compute(self, tmp_path):
        # The CI health-gate's tight soak in small: with a 1 ms latency
        # SLO the page must fire, which needs virtual latencies above
        # zero, i.e. batches that charge their modelled compute.
        report_path = tmp_path / "tight.json"
        health_path = tmp_path / "tight.jsonl"
        exit_code = main(
            [
                "loadgen",
                "--requests", "16",
                "--workers", "1",
                "--rate", "100",
                "--seed", "2023",
                "--pool", "2",
                "--duration", "0.05",
                "--health-interval-s", "1",
                "--slo-latency-ms", "1",
                "--health-out", str(health_path),
                "--report", str(report_path),
            ]
        )
        assert exit_code == 0
        report = json.loads(report_path.read_text())
        assert report["latency_ms"]["p50"] > 0.0
        assert obs_main(["health", str(health_path), "--fail-on-fired"]) == 3

    def test_backlog_latency_runs_from_arrival_to_own_batch(self, tmp_path):
        # Eight near-simultaneous arrivals, one capture per batch: each
        # modelled batch costs 10.5 ms, so the last caller waits ~84 ms
        # from its scheduled arrival while the first is answered after
        # its own batch.  max falls short if latency is timed from when
        # the arrival coroutine resumes; p50 climbs to max if answers
        # wait for the whole backlog to be dispatched.
        report_path = tmp_path / "backlog.json"
        exit_code = main(
            [
                "loadgen",
                "--requests", "8",
                "--workers", "1",
                "--max-batch-size", "1",
                "--rate", "10000",
                "--pool", "2",
                "--duration", "0.05",
                "--report", str(report_path),
            ]
        )
        assert exit_code == 0
        latency = json.loads(report_path.read_text())["latency_ms"]
        assert latency["max"] >= 82.0
        assert latency["p50"] < latency["max"] - 20.0


class TestServiceFlags:
    @pytest.mark.parametrize("command", ["loadgen", "serve"])
    @pytest.mark.parametrize(
        "flag, value, refusal",
        [
            pytest.param(flag, "0", flag, id=flag)
            for flag in ("--workers", "--max-batch-size", "--max-queue-depth")
        ]
        + [
            pytest.param(
                "--health-interval-s", value, "--health-interval-s",
                id=f"--health-interval-s-{value}",
            )
            for value in ("nan", "inf", "0", "-1")
        ]
        # The monitor itself refuses the threshold, before the file is made.
        + [pytest.param("--slo-latency-ms", "nan", "latency_slo_ms", id="--slo-latency-ms-nan")],
    )
    def test_bad_service_count_makes_no_directory(
        self, tmp_path, command, flag, value, refusal
    ):
        cache_dir = tmp_path / "X"
        health_out = tmp_path / "health" / "h.jsonl"
        argv = [command, "--cache-dir", str(cache_dir),
                "--health-interval-s", "1", "--health-out", str(health_out),
                flag, value]
        if command == "loadgen":
            argv += ["--requests", "2"]
        with pytest.raises(ConfigurationError, match=refusal):
            main(argv)
        assert not cache_dir.exists()
        assert not health_out.parent.exists()


class TestServeStdin:
    def test_jsonl_in_jsonl_out(self, monkeypatch, capsys):
        specs = [
            {"tenant": "clinic-a", "seed": 11, "day": 0.5},
            {"tenant": "clinic-b", "seed": 12, "day": 9.5},
        ]
        stdin = io.StringIO("".join(json.dumps(s) + "\n" for s in specs))
        monkeypatch.setattr("sys.stdin", stdin)
        exit_code = main(["serve", "--duration", "0.05"])
        assert exit_code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(lines) == 2
        assert {line["tenant"] for line in lines} == {"clinic-a", "clinic-b"}
        for line in lines:
            assert line["verdict"] in {"processed", "quarantined"}
            assert "request_id" in line and "batch" in line

    def test_malformed_lines_are_reported_not_fatal(self, monkeypatch, capsys):
        stdin = io.StringIO(
            "this is not json\n"
            + json.dumps({"tenant": "clinic", "seed": 5, "day": 1.0})
            + "\n"
        )
        monkeypatch.setattr("sys.stdin", stdin)
        exit_code = main(["serve", "--duration", "0.05"])
        # Bad input is reported inline and in the exit code, but the
        # stream keeps flowing: the good line is still answered.
        assert exit_code == 1
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(lines) == 2
        assert any("error" in line for line in lines)
        assert any(line.get("verdict") == "processed" for line in lines)

    @pytest.mark.parametrize("bad", BAD_SPECS)
    def test_bad_spec_is_answered_and_serving_goes_on(
        self, monkeypatch, capsys, bad
    ):
        good = [
            json.dumps({"tenant": "clinic", "seed": seed, "day": 1.0})
            for seed in (5, 6)
        ]
        stdin = io.StringIO(f"{good[0]}\n{bad}\n{good[1]}\n")
        monkeypatch.setattr("sys.stdin", stdin)
        exit_code = main(["serve", "--duration", "0.05"])
        assert exit_code == 1
        first, middle, last = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert first["verdict"] == last["verdict"] == "processed"
        assert set(middle) == {"error", "message"}

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_is_a_configuration_error(
        self, monkeypatch, capsys, duration
    ):
        spec = json.dumps({"tenant": "clinic", "seed": 5, "duration_s": duration})
        monkeypatch.setattr("sys.stdin", io.StringIO(spec + "\n"))
        assert main(["serve", "--duration", "0.05"]) == 1
        answer = json.loads(capsys.readouterr().out)
        assert answer["error"] == "ConfigurationError"
        assert "duration_s" in answer["message"]


class TestServeWatch:
    def test_spool_directory_round_trip(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "a.json").write_text(
            json.dumps({"tenant": "clinic", "seed": 21, "day": 0.5})
        )
        (spool / "b.json").write_text(
            json.dumps({"tenant": "clinic", "seed": 22, "day": 10.5})
        )
        exit_code = main(
            [
                "serve",
                "--watch", str(spool),
                "--max-files", "2",
                "--duration", "0.05",
            ]
        )
        assert exit_code == 0
        results = sorted(spool.glob("*.result.json"))
        assert [p.name for p in results] == ["a.result.json", "b.result.json"]
        for path in results:
            payload = json.loads(path.read_text())
            assert payload["verdict"] in {"processed", "quarantined"}

    @pytest.mark.parametrize("bad", BAD_SPECS)
    def test_bad_spec_file_is_answered_and_removed(self, tmp_path, bad):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "a.json").write_text(
            json.dumps({"tenant": "clinic", "seed": 21, "day": 0.5})
        )
        (spool / "b.json").write_text(bad)
        (spool / "c.json").write_text(
            json.dumps({"tenant": "clinic", "seed": 22, "day": 10.5})
        )
        exit_code = main(
            [
                "serve",
                "--watch", str(spool),
                "--max-files", "3",
                "--duration", "0.05",
            ]
        )
        assert exit_code == 0
        assert sorted(p.name for p in spool.iterdir()) == [
            "a.result.json",
            "b.result.json",
            "c.result.json",
        ]
        payloads = [
            json.loads((spool / f"{name}.result.json").read_text())
            for name in "abc"
        ]
        assert payloads[0]["verdict"] == payloads[2]["verdict"] == "processed"
        assert set(payloads[1]) == {"error", "message"}

    @pytest.mark.parametrize("poll_s", ["nan", "inf", "0", "-1"])
    def test_bad_poll_interval_is_refused_before_serving(self, tmp_path, poll_s):
        # nan and 0 would busy-spin the poll loop, inf would never poll
        # again: each is refused before the spool directory is made.
        spool = tmp_path / "spool"
        with pytest.raises(ConfigurationError, match="--poll-s"):
            main(["serve", "--watch", str(spool), "--poll-s", poll_s])
        assert not spool.exists()
