"""Fleet-health observability: windowed aggregates, rollups, SLOs.

The health tier answers "is the fleet OK?" the way the tracer answers
"what happened in this run?": hooks in the executor and the serve loop
feed an ambient :class:`HealthMonitor`, which rolls the stream up into
bounded-cardinality dimensional windows, watches the declared SLOs
with multi-window multi-burn-rate alerting, and renders snapshots as
JSON or Prometheus text.  Every hook runs in the parent process, so a
pooled run feeds the monitor the same observations in the same order
as a serial one.  Everything takes its clock from
the caller, so the whole tier replays deterministically under
:class:`~repro.serve.clock.VirtualClock`.

See ``DESIGN.md`` ("Fleet health") for the window/sketch design, the
label-cardinality budget, and the burn-rate math.
"""

from .monitor import (
    DEFAULT_SERIES,
    DEFAULT_SLOS,
    NULL_HEALTH,
    HealthConfig,
    HealthMonitor,
    NullHealthMonitor,
    SeriesSpec,
    current_health,
    use_health,
)
from .rollup import OVERFLOW_VALUE, RollupSeries
from .sketch import QuantileSketch
from .slo import DEFAULT_BURN_RULES, BurnRule, SloConfig, SloTracker
from .window import SlidingWindow, WindowConfig, WindowSnapshot

__all__ = [
    "BurnRule",
    "DEFAULT_BURN_RULES",
    "DEFAULT_SERIES",
    "DEFAULT_SLOS",
    "HealthConfig",
    "HealthMonitor",
    "NULL_HEALTH",
    "NullHealthMonitor",
    "OVERFLOW_VALUE",
    "QuantileSketch",
    "RollupSeries",
    "SeriesSpec",
    "SlidingWindow",
    "SloConfig",
    "SloTracker",
    "WindowConfig",
    "WindowSnapshot",
    "current_health",
    "use_health",
]
