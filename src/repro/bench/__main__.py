"""CLI entry point: ``python -m repro.bench [--quick] [--repeats N] ...``.

Writes ``BENCH_stages.json`` (whole-capture pipeline stages against
their oracles) and ``BENCH_obs.json`` (a traced batch run against the
untraced one) into ``--output-dir`` and prints a summary table.
``--gate BASE_DIR`` compares each report with the base commit's report
of the same name (:func:`repro.bench.check_gate`) and exits 1 on a
regression.  ``--quick`` shrinks the default capture from 1 s to 0.25 s and the
traced batch with it, so the whole run fits in a CI smoke job.  The
quick capture is not the 0.1 s serve shape: at 20 events the parity
pair's speedup swung 2.0–3.2× between runs of one commit on a 2-vCPU
VM, which the gate's 20% cannot tell from a regression, and at 50
events it stayed within 4.1–5.3×.  Each side gets 21 timed calls for
the same reason: with 7, the traced batch's near-1.0 ratio swung
0.85–1.08× and once failed the gate at one commit.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from . import BenchResult, check_gate, compare_ops, load_report, write_report


def _stage_suite(seed: int, quick: bool, repeats: int) -> list[BenchResult]:
    """Whole-capture pipeline stages, each timed against its oracle.

    Every op calls the pipeline's own stage method on the output of the
    stages before it, built once and untimed.  Events, parity and
    spectrum run on a seeded default capture (the study-batch shape);
    the rake runs on a seeded reverberant 0.1 s capture from a drifting
    device unit (the fleet-closed shape).  The band-pass runs on the
    default capture's raw waveform against the pure-Python SOS
    recurrence.  Ops are named after the stage spans, so a trace and the
    ratchet use the same words.
    """
    from ..acoustics.reverb import ReverbConfig
    from ..core.config import EarSonarConfig
    from ..core.pipeline import EarSonarPipeline
    from ..errors import NoEchoFoundError
    from ..kernels.plan import rake_plan
    from ..obs import names as obs_names
    from ..signal.correlation import cancel_early_reflections
    from ..signal.events import detect_events_reference
    from ..signal.filters import butterworth_bandpass, sosfilt_reference
    from ..signal.parity import segment_eardrum_echo
    from ..simulation import SessionConfig, record_session, sample_participant
    from ..simulation.calibration import CalibrationDriftConfig

    rng = np.random.default_rng(seed)
    duration = 0.25 if quick else 1.0
    pipeline = EarSonarPipeline()
    participant = sample_participant(rng, "bench-stages", total_days=30)
    capture = record_session(
        participant, float(rng.uniform(0.0, 30.0)), SessionConfig(duration_s=duration), rng
    )
    bandpass = pipeline.config.bandpass
    design = butterworth_bandpass(
        bandpass.order, bandpass.low_hz, bandpass.high_hz, pipeline.config.chirp.sample_rate
    )
    filtered = pipeline.preprocess(capture.waveform)
    events = pipeline.detect_chirp_events(filtered)
    echoes = pipeline.extract_echoes(filtered, events)
    segmenter = pipeline.config.segmenter

    def parity_oracle() -> list:
        found = []
        for event in events:
            try:
                found.append(segment_eardrum_echo(event.slice(filtered), segmenter))
            except NoEchoFoundError:
                continue
        return found

    reverb = ReverbConfig(enabled=True)
    raking = EarSonarPipeline(EarSonarConfig(reverb=reverb))
    session = SessionConfig(
        duration_s=0.1,
        reverb=reverb,
        calibration=CalibrationDriftConfig(enabled=True),
        device_unit=int(rng.integers(8)),
    )
    participant = sample_participant(rng, "bench-rake", total_days=30)
    reverberant = record_session(participant, float(rng.uniform(0.0, 30.0)), session, rng)
    unraked = raking.preprocess(reverberant.waveform)
    rake_events = raking.detect_chirp_events(unraked)
    plan = rake_plan(raking.config.chirp)

    def rake_oracle() -> tuple[np.ndarray, int]:
        cleaned = unraked.copy()
        removed_total = 0
        for event in rake_events:
            segment, removed = cancel_early_reflections(
                event.slice(unraked),
                plan.pulse,
                plan.quad,
                protect_from=raking.rake_protect_from,
                threshold=raking.config.reverb.rake_threshold,
            )
            cleaned[event.start : event.end] = segment
            removed_total += removed
        return cleaned, removed_total

    return [
        compare_ops(
            obs_names.SPAN_STAGE_BANDPASS,
            f"duration_s={duration},samples={capture.waveform.size}",
            lambda: pipeline.preprocess(capture.waveform),
            lambda: sosfilt_reference(design.sos, capture.waveform),
            repeats=repeats,
        ),
        compare_ops(
            obs_names.SPAN_STAGE_EVENTS,
            f"duration_s={duration},events={len(events)}",
            lambda: pipeline.detect_chirp_events(filtered),
            lambda: detect_events_reference(filtered, pipeline.config.events),
            repeats=repeats,
        ),
        compare_ops(
            obs_names.SPAN_STAGE_PARITY,
            f"duration_s={duration},events={len(events)}",
            lambda: pipeline.extract_echoes(filtered, events),
            parity_oracle,
            repeats=repeats,
        ),
        compare_ops(
            obs_names.SPAN_STAGE_SPECTRUM,
            f"duration_s={duration},echoes={len(echoes)}",
            lambda: pipeline.absorption_curves(echoes),
            lambda: np.stack([pipeline.absorption_curve(e) for e in echoes]),
            repeats=repeats,
        ),
        compare_ops(
            obs_names.SPAN_STAGE_RAKE,
            f"duration_s={session.duration_s},events={len(rake_events)}",
            lambda: raking.cancel_reflections(unraked, rake_events),
            rake_oracle,
            repeats=repeats,
        ),
    ]


def _obs_suite(
    seed: int, quick: bool, repeats: int, trace_dir: Path | None = None
) -> list[BenchResult]:
    """Tracing overhead: one batch run traced vs the NullTracer path.

    The traced side runs under a real :class:`~repro.obs.Tracer` and
    nothing else, so the op measures the tracer alone.  The ``serial``
    side is the default (tracing disabled) run, so ``speedup`` reads as
    the median per-round ``untraced / traced`` ratio — 1.0 means free
    tracing, and the overhead percentage is ``(1/speedup - 1) * 100``,
    which ``--fail-overhead-pct`` (5 in CI) bounds.
    When ``trace_dir`` is given, the artifacts of one traced run
    (run record, Chrome trace, manifest, Prometheus text) are written
    there so CI can upload them next to the BENCH reports.
    """
    from ..core.config import EarSonarConfig
    from ..core.pipeline import EarSonarPipeline
    from ..obs import Tracer, capture_manifest, use_tracer
    from ..obs.export import write_run_record
    from ..runtime.executor import BatchExecutor
    from ..runtime.metrics import RuntimeMetrics
    from ..simulation.cohort import StudyDesign, build_cohort, simulate_study
    from ..simulation.session import SessionConfig

    rng = np.random.default_rng(seed)
    participants = 2 if quick else 4
    cohort = build_cohort(participants, rng, total_days=8)
    design = StudyDesign(
        total_days=2 if quick else 4,
        sessions_per_day=1,
        session_config=SessionConfig(duration_s=0.1 if quick else 0.25),
    )
    recordings = simulate_study(cohort, design, rng).recordings
    config = EarSonarConfig()
    untraced_exec = BatchExecutor(EarSonarPipeline(config))
    traced_metrics = RuntimeMetrics()
    traced_exec = BatchExecutor(EarSonarPipeline(config), metrics=traced_metrics)
    last: dict = {}

    def run_traced():
        tracer = Tracer()
        with use_tracer(tracer):
            result = traced_exec.run(recordings)
        last["tracer"] = tracer
        return result

    comparison = compare_ops(
        "batch_screening_traced",
        f"recordings={len(recordings)}",
        run_traced,
        lambda: untraced_exec.run(recordings),
        repeats=repeats,
    )
    if trace_dir is not None:
        write_run_record(
            trace_dir,
            spans=last["tracer"].traces,
            metrics=traced_metrics,
            manifest=capture_manifest(config=config, seed=seed),
        )
    return [comparison]


def overhead_pct(result: BenchResult) -> float:
    """Tracing overhead percent from an obs-suite comparison record."""
    return (1.0 / result.speedup - 1.0) * 100.0


def _print_table(title: str, results: list[BenchResult]) -> None:
    """Echo one report as an aligned terminal table."""
    print(f"\n{title}")
    header = f"{'op':<28}{'shape':<34}{'p50 ms':>10}{'serial p50':>12}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for r in results:
        speed = f"{r.speedup:.1f}x"
        print(
            f"{r.op:<28}{r.shape:<34}{r.p50_ms:>10.3f}"
            f"{r.serial_p50_ms:>12.3f}{speed:>9}"
        )


def main(argv: list[str] | None = None) -> int:
    """Run both suites, write the BENCH_*.json reports and gate them."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time whole-capture pipeline stages against their oracles.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small problem sizes for CI smoke runs"
    )
    parser.add_argument(
        "--repeats", type=int, default=21, help="timed calls per side of each op"
    )
    parser.add_argument(
        "--output-dir", type=Path, default=Path("."), help="where BENCH_*.json land"
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for inputs")
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="write one traced run's record/Chrome-trace artifacts here",
    )
    parser.add_argument(
        "--fail-overhead-pct",
        type=float,
        default=None,
        help="exit 1 if a traced batch run takes more than this percent "
        "longer than the untraced run it is paired with (median of pairs)",
    )
    parser.add_argument(
        "--gate",
        type=Path,
        default=None,
        metavar="BASE_DIR",
        help="fail if an op regressed on both p50 and speedup against the "
        "report of the same name in BASE_DIR (the base commit's run)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")

    stage_results = _stage_suite(args.seed, args.quick, args.repeats)
    obs_results = _obs_suite(args.seed, args.quick, args.repeats, args.trace_dir)

    from ..core.config import EarSonarConfig

    reports = {
        "BENCH_stages.json": ("stages", stage_results),
        "BENCH_obs.json": ("obs", obs_results),
    }
    # Read the base reports before writing, so a base directory equal
    # to the output directory still compares the previous run.
    bases = {name: load_report(args.gate / name) for name in reports} if args.gate else {}
    args.output_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = EarSonarConfig().fingerprint()
    written = {
        name: write_report(
            args.output_dir / name,
            results,
            label=label,
            quick=args.quick,
            seed=args.seed,
            config_fingerprint=fingerprint,
        )
        for name, (label, results) in reports.items()
    }

    _print_table("pipeline stages, whole capture (batched vs oracle)", stage_results)
    _print_table("observability overhead (traced vs disabled)", obs_results)
    overhead = overhead_pct(obs_results[0])
    print(f"\ntracing overhead: {overhead:+.2f}% (median of paired batch runs)")
    print(f"wrote {', '.join(reports)} to {args.output_dir}")

    failed = False
    for name, base in bases.items():
        regressions, detail = check_gate(written[name], base)
        print(f"bench-gate: {args.gate / name}: {detail}")
        for reg in regressions:
            print(
                f"FAIL: {reg.op} p50 {reg.baseline_p50_ms:.3f} -> "
                f"{reg.current_p50_ms:.3f} ms, speedup "
                f"{reg.baseline_speedup:.2f}x -> {reg.current_speedup:.2f}x"
            )
        failed = failed or bool(regressions)

    if args.fail_overhead_pct is not None and overhead > args.fail_overhead_pct:
        print(
            f"FAIL: tracing overhead {overhead:+.2f}% exceeds "
            f"{args.fail_overhead_pct:g}% budget"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
