"""Deterministic fault injection for chaos-testing the executor.

A :class:`FaultInjector` names exact recording indices and one failure
mode; workers consult it before processing each recording and fail *on
purpose* — crash the process, overshoot the task deadline, or raise
:class:`~repro.errors.InjectedFaultError`.  Because the trip points are
explicit indices (not probabilities), a chaos test is exactly as
reproducible as the pipeline it attacks: same batch, same injector,
same failure trajectory.

Injection is honored only on the executor's pool path.  A crash or a
hang in the serial path would take down (or freeze) the caller's own
process, which is the opposite of what a chaos harness wants; the pool
path is also where the recovery machinery under test — deadlines,
chunk quarantine, pool replacement — actually lives.  So a
multi-worker executor holding an injector dispatches to its pool even
a run with a single cache miss.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from ..errors import ConfigurationError, InjectedFaultError

__all__ = ["FaultInjector"]

#: Worker exit code used by crash injection, distinguishable from a
#: genuine interpreter abort in test assertions and logs.
CRASH_EXIT_CODE = 87


@dataclass(frozen=True)
class FaultInjector:
    """Trip plan for deliberate worker failures.

    Attributes
    ----------
    mode:
        ``"error"`` raises :class:`InjectedFaultError`; ``"crash"``
        kills the worker process with ``os._exit``; ``"hang"`` sleeps
        ``hang_s`` seconds so the task overshoots its deadline.
    indices:
        Batch positions (the executor's recording indices) that trip.
    hang_s:
        Sleep duration for ``"hang"`` mode.
    """

    mode: str
    indices: tuple[int, ...] = ()
    hang_s: float = 5.0

    def __post_init__(self) -> None:
        if self.mode not in ("error", "crash", "hang"):
            raise ConfigurationError(
                f"mode must be 'error', 'crash', or 'hang', got {self.mode!r}"
            )
        if self.hang_s <= 0:
            raise ConfigurationError(f"hang_s must be positive, got {self.hang_s}")

    def should_trip(self, index: int) -> bool:
        """Whether the recording at batch position ``index`` trips."""
        return index in self.indices

    def trip(self, index: int) -> None:
        """Execute the configured failure (worker side)."""
        if self.mode == "crash":
            # os._exit skips interpreter cleanup, faithfully simulating
            # an OOM kill / segfault as seen by the parent pool.
            os._exit(CRASH_EXIT_CODE)
        if self.mode == "hang":
            time.sleep(self.hang_s)
            return
        raise InjectedFaultError(f"injected fault at batch index {index}")
