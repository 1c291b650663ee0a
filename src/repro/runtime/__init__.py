"""The batch-screening runtime: execution layer of the reproduction.

Sits between the virtual clinic (``repro.simulation``) and the learning
stack (``repro.learning`` / ``repro.core``): everything that turns *many*
raw :class:`~repro.simulation.session.Recording` objects into feature
vectors — worker pools with per-task deadlines, content-addressed
caching, per-recording fault quarantine, and runtime metrics — lives
here, so experiments and the screening API stay declarative about
*what* to compute and the runtime decides *how*.  A recording the DSP
cannot screen is quarantined once, not retried: the pipeline is
deterministic, and a failed capture calls for a new measurement.

Quick use::

    from repro.runtime import BatchExecutor, FeatureCache, RuntimeMetrics

    executor = BatchExecutor(workers=4, cache=FeatureCache())
    result = executor.run(study.recordings)
    result.processed        # in input order, byte-identical to serial
    result.quarantine       # structured FailedRecording entries
    executor.metrics.report()

or ``python -m repro.runtime --participants 4 --days 8 --workers 4``
for an end-to-end demonstration with a metrics report.
"""

from .cache import FeatureCache, recording_key
from .chaos import FaultInjector
from .executor import BatchExecutor, BatchResult
from .faults import FailedRecording
from .metrics import Histogram, RuntimeMetrics

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "FaultInjector",
    "FeatureCache",
    "recording_key",
    "FailedRecording",
    "Histogram",
    "RuntimeMetrics",
]
