"""Bench for Fig. 7 — chirp train synthesis and capture.

Times the capture of one seeded default session, ``record_session``:
the simulator's signal collection front end, which synthesizes the
received chirp train through ``kernels.session.synthesize_train``.
Then it verifies the captured train's structure.
"""

import numpy as np
import pytest

from repro.experiments import fig07_08_signals
from repro.simulation.participant import sample_participant
from repro.simulation.session import SessionConfig, record_session


@pytest.fixture(scope="module")
def result():
    return fig07_08_signals.run()


@pytest.mark.experiment
def test_fig07_chirp_capture(benchmark, report, result):
    benchmark.group = "fig07"
    figure = fig07_08_signals.SignalFigureConfig()
    participant = sample_participant(np.random.default_rng(figure.seed), "FIG7")
    session = SessionConfig()
    benchmark(
        lambda: record_session(
            participant, figure.day, session, np.random.default_rng(figure.seed)
        )
    )

    print()
    print(result.render())
    report(result.render())

    # One event per emitted chirp, spaced by the 5 ms interval.
    assert len(result.events) == result.expected_chirps
    assert result.event_spacing_samples == pytest.approx(240.0, abs=5.0)
    # Echo overlap (Fig. 7b): echoes arrive while the canal still rings,
    # within the physical 1.6-3.4 cm drum-distance prior.
    distances = result.echo_distances_m
    assert distances.size > 0
    assert np.all(distances >= 0.015)
    assert np.all(distances <= 0.035)
