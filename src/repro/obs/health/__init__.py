"""Fleet-health observability: mergeable aggregates, rollups, SLOs.

The health tier answers "is the fleet OK?" the way the tracer answers
"what happened in this run?": hooks across the executor, pipeline, and
serve loop feed an ambient :class:`HealthMonitor`, which rolls the
stream up into bounded-cardinality dimensional windows, watches the
declared SLOs with multi-window multi-burn-rate alerting, and renders
snapshots as JSON or Prometheus text.  Everything merges — worker
aggregates fold into the parent's exactly — and everything takes its
clock from the caller, so the whole tier replays deterministically
under :class:`~repro.serve.clock.VirtualClock`.

See ``DESIGN.md`` ("Fleet health") for the window/sketch design, the
label-cardinality budget, and the burn-rate math.
"""

from .monitor import (
    DEFAULT_SERIES,
    DEFAULT_SLOS,
    NULL_HEALTH,
    HealthConfig,
    HealthContext,
    HealthMonitor,
    NullHealthMonitor,
    SeriesSpec,
    activate_health_from_context,
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
    "HealthContext",
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
    "activate_health_from_context",
    "current_health",
    "use_health",
]
