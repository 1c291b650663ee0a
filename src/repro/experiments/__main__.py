"""Command-line experiment runner.

Run any paper experiment by name::

    python -m repro.experiments fig13
    python -m repro.experiments table1 --scale small
    python -m repro.experiments all --scale 8

Scale accepts the ``EARSONAR_SCALE`` presets (``small`` / ``default`` /
``paper``) or a participant count.

``--trace-dir DIR`` runs the experiments under the observability layer
and writes the run record (spans, manifest, Chrome trace) there for
``python -m repro.obs`` to inspect.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from ..obs import Tracer, capture_manifest, use_tracer
from ..obs.export import write_run_record

from . import (
    ablations,
    baseline_comparison,
    calibration_drift,
    label_noise,
    fig02_feasibility,
    fig07_08_signals,
    fig09_consistency,
    fig10_11_spectra,
    fig13_overall,
    fig14_noise_motion,
    fig15_devices_training,
    robustness_curves,
    table1_angle,
    table2_3_system,
)
from .common import scale_from_env

#: Experiment name -> (module, needs_scale).  Modules whose configs
#: carry an ExperimentScale receive the CLI-selected scale.
_EXPERIMENTS = {
    "fig02": (fig02_feasibility, False),
    "fig07": (fig07_08_signals, False),
    "fig08": (fig07_08_signals, False),
    "fig09": (fig09_consistency, False),
    "fig10": (fig10_11_spectra, False),
    "fig11": (fig10_11_spectra, False),
    "fig13": (fig13_overall, True),
    "fig14": (fig14_noise_motion, True),
    "fig15": (fig15_devices_training, True),
    "table1": (table1_angle, True),
    "table2": (table2_3_system, False),
    "table3": (table2_3_system, False),
    "baseline": (baseline_comparison, True),
    "ablations": (ablations, True),
    "labelnoise": (label_noise, True),
    "robustness": (robustness_curves, True),
    "calibdrift": (calibration_drift, True),
}


def _run_one(name: str) -> None:
    module, needs_scale = _EXPERIMENTS[name]
    start = time.time()
    if needs_scale:
        scale = scale_from_env()
        # Every scaled experiment's default config takes `scale`.
        config_types = {
            "fig13": fig13_overall.Fig13Config,
            "fig14": fig14_noise_motion.Fig14Config,
            "fig15": fig15_devices_training.Fig15Config,
            "table1": table1_angle.Table1Config,
            "baseline": baseline_comparison.BaselineConfig,
            "ablations": ablations.AblationConfig,
            "labelnoise": label_noise.LabelNoiseConfig,
            "robustness": robustness_curves.RobustnessCurvesConfig,
            "calibdrift": calibration_drift.CalibrationDriftExperimentConfig,
        }
        result = module.run(config_types[name](scale=scale))
    else:
        result = module.run()
    print(result.render())
    elapsed = time.time() - start
    print(f"[{name}: {elapsed:.0f}s]\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which paper artefact to regenerate",
    )
    parser.add_argument(
        "--scale",
        default=None,
        help="workload scale: small / default / paper, or a participant count",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="enable tracing and write the run record to this directory",
    )
    args = parser.parse_args(argv)
    if args.scale is not None:
        os.environ["EARSONAR_SCALE"] = args.scale
    names = sorted(set(_EXPERIMENTS)) if args.experiment == "all" else [args.experiment]

    tracer = Tracer() if args.trace_dir is not None else None
    with use_tracer(tracer) if tracer is not None else contextlib.nullcontext():
        # fig07/fig08 and fig10/fig11 and table2/table3 share modules; dedupe.
        seen_modules = set()
        for name in names:
            module, _ = _EXPERIMENTS[name]
            if module in seen_modules:
                continue
            seen_modules.add(module)
            _run_one(name)

    if tracer is not None:
        paths = write_run_record(
            args.trace_dir,
            spans=tracer.traces,
            manifest=capture_manifest(argv=argv),
        )
        print(f"trace written: {paths['record']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
