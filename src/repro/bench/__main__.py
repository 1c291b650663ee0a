"""CLI entry point: ``python -m repro.bench [--quick] [--repeats N] ...``.

Writes ``BENCH_kernels.json`` (kernel micro-benchmarks against their
serial oracles) and ``BENCH_pipeline.json`` (pipeline-shaped stages on
a real simulated recording) into ``--output-dir`` and prints a summary
table.  ``--quick`` shrinks every problem size so the whole run fits in
a CI smoke job; the default sizes match the pipeline's real workloads
so the reported speedups are the ones users see.
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from . import BenchResult, compare_ops, git_sha, machine_fingerprint, write_report
from .trajectory import append_entry, check_gate


def _kernel_suite(rng: np.random.Generator, quick: bool, repeats: int) -> list[BenchResult]:
    """Micro-benchmarks: each batched kernel vs its serial oracle."""
    from ..acoustics.reverb import ReverbConfig
    from ..core.config import EarSonarConfig
    from ..core.pipeline import EarSonarPipeline
    from ..errors import NoEchoFoundError
    from ..features.laplacian import laplacian_scores, laplacian_scores_reference
    from ..kernels.chirp import rake_cancel_batched
    from ..kernels.plan import rake_plan
    from ..signal.chirp import (
        ChirpDesign,
        chirp_train,
        chirp_train_reference,
        matched_filter,
        matched_filter_reference,
    )
    from ..signal.correlation import (
        cancel_early_reflections,
        correlation_matrix,
        correlation_matrix_reference,
    )
    from ..signal.mfcc import MfccConfig, mfcc, mfcc_reference
    from ..signal.parity import segment_eardrum_echo, segment_eardrum_echoes
    from ..signal.spectral import welch_psd, welch_psd_reference
    from ..simulation import SessionConfig, record_session, sample_participant
    from ..simulation.calibration import CalibrationDriftConfig

    results: list[BenchResult] = []
    fs = ChirpDesign().sample_rate

    n = 16_384 if quick else 96_000
    x = rng.standard_normal(n)
    results.append(
        compare_ops(
            "welch_psd",
            f"n={n},segment=256,overlap=0.5",
            lambda: welch_psd(x, fs, segment_length=256, overlap=0.5),
            lambda: welch_psd_reference(x, fs, segment_length=256, overlap=0.5),
            repeats=repeats,
        )
    )

    mfcc_cfg = MfccConfig(
        sample_rate=384_000.0,
        frame_length=256,
        frame_hop=128,
        nfft=1024,
        num_filters=20,
        num_coefficients=17,
        low_hz=15_000.0,
        high_hz=21_000.0,
    )
    m = 4_096 if quick else 16_384
    seg = rng.standard_normal(m)
    results.append(
        compare_ops(
            "mfcc",
            f"n={m},frame=256,hop=128,nfft=1024",
            lambda: mfcc(seg, mfcc_cfg),
            lambda: mfcc_reference(seg, mfcc_cfg),
            repeats=repeats,
        )
    )

    sessions, bins = (24, 128) if quick else (64, 512)
    curves = rng.standard_normal((sessions, bins))
    results.append(
        compare_ops(
            "correlation_matrix",
            f"sessions={sessions},bins={bins}",
            lambda: correlation_matrix(curves),
            lambda: correlation_matrix_reference(curves),
            repeats=repeats,
        )
    )

    samples, feats = (60, 40) if quick else (240, 105)
    table = rng.standard_normal((samples, feats))
    results.append(
        compare_ops(
            "laplacian_scores",
            f"samples={samples},features={feats}",
            lambda: laplacian_scores(table),
            lambda: laplacian_scores_reference(table),
            repeats=repeats,
        )
    )

    design = ChirpDesign()
    chirps = 50 if quick else 200
    results.append(
        compare_ops(
            "chirp_train",
            f"chirps={chirps}",
            lambda: chirp_train(design, chirps),
            lambda: chirp_train_reference(design, chirps),
            repeats=repeats,
        )
    )

    k = 8_192 if quick else 48_000
    capture = rng.standard_normal(k)
    results.append(
        compare_ops(
            "matched_filter",
            f"n={k}",
            lambda: matched_filter(capture, design),
            lambda: matched_filter_reference(capture, design),
            repeats=repeats,
        )
    )

    # The rake stage: every event of one seeded reverberant capture from
    # a drifting device unit, batched vs the per-event dense oracle.
    duration = 0.1 if quick else 1.0
    session = SessionConfig(
        duration_s=duration,
        reverb=ReverbConfig(enabled=True),
        calibration=CalibrationDriftConfig(enabled=True),
        device_unit=int(rng.integers(8)),
    )
    participant = sample_participant(rng, "bench-rake", total_days=30)
    recording = record_session(participant, float(rng.uniform(0.0, 30.0)), session, rng)
    pipeline = EarSonarPipeline(EarSonarConfig(reverb=ReverbConfig(enabled=True)))
    filtered = pipeline.preprocess(recording.waveform)
    segments = [e.slice(filtered) for e in pipeline.detect_chirp_events(filtered)]
    rake = rake_plan(pipeline.config.chirp)
    protect_from = pipeline.rake_protect_from
    threshold = pipeline.config.reverb.rake_threshold
    results.append(
        compare_ops(
            "rake_cancel",
            f"events={len(segments)},duration_s={duration}",
            lambda: rake_cancel_batched(
                segments,
                pipeline.config.chirp,
                protect_from=protect_from,
                threshold=threshold,
            ),
            lambda: [
                cancel_early_reflections(
                    segment,
                    rake.pulse,
                    rake.quad,
                    protect_from=protect_from,
                    threshold=threshold,
                )
                for segment in segments
            ],
            repeats=repeats,
        )
    )

    # The parity stage: every event of one seeded default capture in one
    # batched call vs the per-event oracle loop.
    participant = sample_participant(rng, "bench-parity", total_days=30)
    recording = record_session(
        participant, float(rng.uniform(0.0, 30.0)), SessionConfig(duration_s=duration), rng
    )
    pipeline = EarSonarPipeline()
    filtered = pipeline.preprocess(recording.waveform)
    events = [e.slice(filtered) for e in pipeline.detect_chirp_events(filtered)]
    segmenter = pipeline.config.segmenter

    def parity_oracle() -> list:
        echoes = []
        for event in events:
            try:
                echoes.append(segment_eardrum_echo(event, segmenter))
            except NoEchoFoundError:
                echoes.append(None)
        return echoes

    results.append(
        compare_ops(
            "parity_segment",
            f"events={len(events)},duration_s={duration}",
            lambda: segment_eardrum_echoes(events, segmenter),
            parity_oracle,
            repeats=repeats,
        )
    )
    return results


def _pipeline_suite(seed: int, quick: bool, repeats: int) -> list[BenchResult]:
    """Pipeline-shaped stages on one real simulated recording."""
    from ..acoustics.ear import InsertionState, build_ear_channel
    from ..core.config import EarSonarConfig
    from ..core.pipeline import EarSonarPipeline
    from ..signal.mfcc import MfccConfig, mfcc, mfcc_reference
    from ..signal.spectral import welch_psd, welch_psd_reference
    from ..simulation.earphone import PROTOTYPE
    from ..simulation.participant import sample_participant
    from ..simulation.session import (
        SessionConfig,
        _apply_device,
        _apply_device_reference,
        _synthesize_train,
        _synthesize_train_reference,
        record_session,
    )

    results: list[BenchResult] = []
    setup_rng = np.random.default_rng(seed)
    participant = sample_participant(setup_rng, "BENCH")
    session_cfg = SessionConfig(duration_s=0.2 if quick else 1.0)
    insertion = InsertionState(
        depth_m=session_cfg.insertion_depth_m, angle_deg=0.0, seal_quality=0.95
    )
    load = participant.load_on(0.0, setup_rng)
    channel = build_ear_channel(
        participant.geometry, participant.drum_model, load, insertion
    )

    def synth_batched() -> np.ndarray:
        return _synthesize_train(channel, session_cfg, np.random.default_rng(seed))

    def synth_serial() -> np.ndarray:
        return _synthesize_train_reference(
            channel, session_cfg, np.random.default_rng(seed)
        )

    results.append(
        compare_ops(
            "record_session_synthesis",
            f"chirps={session_cfg.num_chirps}",
            synth_batched,
            synth_serial,
            repeats=repeats,
        )
    )

    waveform = synth_batched()
    fs = session_cfg.chirp.sample_rate
    results.append(
        compare_ops(
            "device_coloration",
            f"n={waveform.size}",
            lambda: _apply_device(waveform, PROTOTYPE, fs),
            lambda: _apply_device_reference(waveform, PROTOTYPE, fs),
            repeats=repeats,
        )
    )

    pipeline = EarSonarPipeline(EarSonarConfig())
    recording = record_session(
        participant, 0.0, session_cfg, np.random.default_rng(seed + 1)
    )
    filtered = pipeline.preprocess(recording.waveform)
    echoes = pipeline.extract_echoes(filtered)
    if echoes:
        results.append(
            compare_ops(
                "absorption_curves",
                f"echoes={len(echoes)},nfft=8192",
                lambda: pipeline.absorption_curves(echoes),
                lambda: [pipeline.absorption_curve(e) for e in echoes],
                repeats=repeats,
            )
        )
        mean_segment = np.stack([e.segment for e in echoes]).mean(axis=0)
        rate = echoes[0].sample_rate
        mfcc_cfg = MfccConfig(
            sample_rate=rate,
            frame_length=256,
            frame_hop=128,
            nfft=1024,
            num_filters=20,
            num_coefficients=17,
            low_hz=15_000.0,
            high_hz=21_000.0,
        )
        # The spectral feature path as the experiments run it: Welch PSD
        # of the band-passed capture (the Fig. 9 consistency input) plus
        # MFCCs of the mean eardrum-echo segment (the Sec. IV-C input).
        results.append(
            compare_ops(
                "welch_mfcc_feature_path",
                f"capture={filtered.size},segment={mean_segment.size}",
                lambda: (
                    welch_psd(filtered, fs, segment_length=512),
                    mfcc(mean_segment, mfcc_cfg),
                ),
                lambda: (
                    welch_psd_reference(filtered, fs, segment_length=512),
                    mfcc_reference(mean_segment, mfcc_cfg),
                ),
                repeats=repeats,
            )
        )
    return results


def _obs_suite(
    seed: int, quick: bool, repeats: int, trace_dir: Path | None = None
) -> list[BenchResult]:
    """Tracing overhead: one batch run traced vs the NullTracer path.

    The ``serial`` side is the default (tracing disabled) run, so
    ``speedup`` reads as ``untraced_p50 / traced_p50`` — 1.0 means free
    tracing, and the overhead percentage is ``(1/speedup - 1) * 100``.
    When ``trace_dir`` is given, the artifacts of one traced run
    (run record, Chrome trace, events, Prometheus text) are written
    there so CI can upload them next to the BENCH reports.
    """
    from ..core.config import EarSonarConfig
    from ..core.pipeline import EarSonarPipeline
    from ..obs import EventLog, Tracer, capture_manifest, use_event_log, use_tracer
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
        tracer, log = Tracer(), EventLog()
        with use_tracer(tracer), use_event_log(log):
            result = traced_exec.run(recordings)
        last["tracer"], last["log"] = tracer, log
        return result

    comparison = compare_ops(
        "batch_screening_traced",
        f"recordings={len(recordings)}",
        run_traced,
        lambda: untraced_exec.run(recordings),
        repeats=repeats,
        # The expected ratio is ~1.0, so block-ordered timing would let
        # clock drift masquerade as tracing overhead; interleave pairs.
        interleave=True,
    )
    if trace_dir is not None:
        write_run_record(
            trace_dir,
            spans=last["tracer"].traces,
            metrics=traced_metrics,
            manifest=capture_manifest(config=config, seed=seed),
            events=last["log"],
        )
    return [comparison]


def overhead_pct(result: BenchResult) -> float | None:
    """Tracing overhead percent from an obs-suite comparison record."""
    if result.serial_p50_ms is None or result.serial_p50_ms <= 0.0:
        return None
    return (result.p50_ms / result.serial_p50_ms - 1.0) * 100.0


def _print_table(title: str, results: list[BenchResult]) -> None:
    """Echo one report as an aligned terminal table."""
    print(f"\n{title}")
    header = f"{'op':<28}{'shape':<34}{'p50 ms':>10}{'serial p50':>12}{'speedup':>9}"
    print(header)
    print("-" * len(header))
    for r in results:
        serial = f"{r.serial_p50_ms:.3f}" if r.serial_p50_ms is not None else "-"
        speed = f"{r.speedup:.1f}x" if r.speedup is not None else "-"
        print(f"{r.op:<28}{r.shape:<34}{r.p50_ms:>10.3f}{serial:>12}{speed:>9}")


def main(argv: list[str] | None = None) -> int:
    """Run both suites and write the BENCH_*.json reports."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark batched DSP kernels against their serial oracles.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small problem sizes for CI smoke runs"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timed calls per op (default 7, quick 3)"
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
        help="exit 1 if tracing-enabled batch p50 exceeds the disabled "
        "path by more than this percent",
    )
    parser.add_argument(
        "--trajectory",
        type=Path,
        default=None,
        help="append this run's per-op numbers to the given "
        "BENCH_trajectory.json (append-only perf history)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="after appending, fail if any op regressed past "
        "--gate-tolerance on both p50 and speedup vs the previous "
        "same-machine trajectory entry",
    )
    parser.add_argument(
        "--gate-tolerance",
        type=float,
        default=0.20,
        help="fractional slowdown the gate tolerates on each signal "
        "(default 0.20)",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 7)
    rng = np.random.default_rng(args.seed)

    kernel_results = _kernel_suite(rng, args.quick, repeats)
    pipeline_results = _pipeline_suite(args.seed, args.quick, repeats)
    obs_results = _obs_suite(args.seed, args.quick, repeats, args.trace_dir)

    from ..core.config import EarSonarConfig

    sha = git_sha()
    machine = machine_fingerprint()
    fingerprint = EarSonarConfig().fingerprint()
    stamp = {
        "quick": args.quick,
        "seed": args.seed,
        "sha": sha,
        "machine": machine,
        "config_fingerprint": fingerprint,
    }
    args.output_dir.mkdir(parents=True, exist_ok=True)
    kernels_path = write_report(
        args.output_dir / "BENCH_kernels.json", kernel_results, label="kernels", **stamp
    )
    pipeline_path = write_report(
        args.output_dir / "BENCH_pipeline.json",
        pipeline_results,
        label="pipeline",
        **stamp,
    )
    obs_path = write_report(
        args.output_dir / "BENCH_obs.json", obs_results, label="obs", **stamp
    )

    _print_table("kernel micro-benchmarks (batched vs serial oracle)", kernel_results)
    _print_table("pipeline stages (batched vs serial oracle)", pipeline_results)
    _print_table("observability overhead (traced vs disabled)", obs_results)
    overhead = overhead_pct(obs_results[0])
    if overhead is not None:
        print(f"\ntracing overhead: {overhead:+.2f}% on batch p50")
    print(f"wrote {kernels_path}, {pipeline_path} and {obs_path}")

    failed = False
    if args.trajectory is not None:
        # The obs op is namespaced so the ratchet tracks tracing
        # overhead per entry: its speedup is untraced/traced p50, so a
        # drop past tolerance (more overhead) plus a p50 rise fails the
        # gate like any kernel regression.
        trajectory_results = kernel_results + [
            dataclasses.replace(r, op=f"obs.{r.op}") for r in obs_results
        ]
        append_entry(
            args.trajectory,
            trajectory_results,
            seed=args.seed,
            quick=args.quick,
            sha=sha,
            machine=machine,
        )
        print(f"appended trajectory entry ({len(trajectory_results)} ops) to {args.trajectory}")
        if args.gate:
            regressions, detail = check_gate(
                args.trajectory, tolerance=args.gate_tolerance
            )
            print(f"bench-gate: {detail}")
            for reg in regressions:
                speedup_note = ""
                if reg.baseline_speedup is not None and reg.current_speedup is not None:
                    speedup_note = (
                        f", speedup {reg.baseline_speedup:.2f}x -> "
                        f"{reg.current_speedup:.2f}x"
                    )
                print(
                    f"FAIL: {reg.op} regressed {reg.ratio:.2f}x "
                    f"({reg.baseline_p50_ms:.3f} ms -> "
                    f"{reg.current_p50_ms:.3f} ms{speedup_note})"
                )
            failed = failed or bool(regressions)

    if (
        args.fail_overhead_pct is not None
        and overhead is not None
        and overhead > args.fail_overhead_pct
    ):
        print(
            f"FAIL: tracing overhead {overhead:+.2f}% exceeds "
            f"{args.fail_overhead_pct:g}% budget"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
