"""The run-time path never imports scipy: it is the tests' oracle only."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

import numpy as np

import repro.core, repro.quality, repro.runtime, repro.serve, repro.simulation
from repro.core import EarSonarPipeline
from repro.simulation import SessionConfig, record_session, sample_participant

rng = np.random.default_rng(31)
participant = sample_participant(rng, "S0", total_days=30)
recording = record_session(participant, 2.0, SessionConfig(duration_s=0.1), rng)
processed = EarSonarPipeline().process(recording)
assert processed.num_echoes > 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_screening_a_capture_loads_no_scipy():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
