"""Deterministic time: the single clock boundary of :mod:`repro.serve`.

Everything time-shaped in the online service — queue waits, batch
timings, latency measurement — flows through one :class:`Clock`
object, never through ``time``/``asyncio`` directly.  That buys the
property the whole serving test suite is built on: with a
:class:`VirtualClock` the entire service (admission, tenant lanes,
batching) is simulatable — a thousand seconds of traffic run in
milliseconds of wall time, in a deterministic order, with no real
sleeps anywhere.

This module is the *only* place in the package allowed to touch
``time.monotonic`` / ``asyncio.sleep`` (the QA001 lint extension
enforces exactly that); production code gets a :class:`MonotonicClock`,
tests get a :class:`VirtualClock` they advance by hand.

``asyncio.sleep(0)`` appears here deliberately: it is a pure
cooperative yield (control returns on the next loop iteration, no
timer involved), which is how :meth:`VirtualClock.advance` lets woken
tasks run between virtual-time steps without consuming wall time.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import Callable, Protocol, runtime_checkable

__all__ = [
    "Clock",
    "MonotonicClock",
    "VirtualClock",
]


@runtime_checkable
class Clock(Protocol):
    """What the service needs from time: a position and a delay."""

    def now(self) -> float:
        """Current time in seconds on this clock's (monotonic) axis."""
        ...

    async def sleep(self, delay: float) -> None:
        """Suspend the calling task for ``delay`` seconds of clock time."""
        ...


class MonotonicClock:
    """Real time for production serving, on the monotonic axis.

    ``time.monotonic`` (never ``time.time``) so the service is immune
    to NTP steps and wall-clock adjustments; consistent with QA001's
    determinism stance, no code path ever reads calendar time.
    """

    def now(self) -> float:
        """Seconds from an arbitrary monotonic epoch."""
        return time.monotonic()

    async def sleep(self, delay: float) -> None:
        """Real cooperative sleep (clamped at zero)."""
        await asyncio.sleep(max(0.0, delay))


class VirtualClock:
    """Simulated time that only moves when a test advances it.

    Sleeping tasks park on a deadline heap; :meth:`advance` moves time
    forward, waking sleepers *in deadline order* and yielding to the
    event loop between wakes so a woken task can run — and register a
    new, earlier sleep — before later deadlines fire.  This makes the
    service's interleavings a pure function of the submitted work and
    the advance schedule, never of host scheduling.

    :meth:`tick` is the synchronous variant for use *inside* otherwise
    synchronous code (e.g. a stub batch runner modelling "this batch
    took 80 ms"): it moves time and resolves due sleepers but lets
    their coroutines run at the caller's next await point.
    """

    def __init__(self, start: float = 0.0, settle_rounds: int = 32) -> None:
        if settle_rounds < 1:
            raise ValueError(f"settle_rounds must be >= 1, got {settle_rounds}")
        self._now = float(start)
        self._seq = 0
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []
        self._settle_rounds = settle_rounds

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    async def sleep(self, delay: float) -> None:
        """Park until virtual time passes ``now() + delay``."""
        if delay <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        self._seq += 1
        heapq.heappush(self._sleepers, (self._now + delay, self._seq, future))
        await future

    def tick(self, dt: float) -> None:
        """Synchronously move time forward by ``dt`` seconds.

        Due sleepers are resolved immediately but their coroutines do
        not run until control next returns to the event loop.
        """
        if dt < 0:
            raise ValueError(f"cannot move time backwards (dt={dt})")
        target = self._now + dt
        while self._sleepers and self._sleepers[0][0] <= target:
            deadline, _, future = heapq.heappop(self._sleepers)
            self._now = max(self._now, deadline)
            if not future.done():
                future.set_result(None)
        self._now = target

    async def settle(self) -> None:
        """Yield to the event loop until ready task chains have run."""
        for _ in range(self._settle_rounds):
            await asyncio.sleep(0)

    async def advance(self, dt: float) -> None:
        """Move time forward ``dt`` seconds, running tasks as they wake.

        Sleepers are woken one deadline at a time with a :meth:`settle`
        between wakes, so a task woken mid-window can schedule an
        earlier follow-up sleep and still be honoured within this same
        ``advance`` call.  When a task meanwhile :meth:`tick`-s past the
        target (a batch runner charging its modelled cost), time stays
        where the tick left it: the clock never moves backwards.
        """
        if dt < 0:
            raise ValueError(f"cannot move time backwards (dt={dt})")
        target = self._now + dt
        await self.settle()
        while self._sleepers and self._sleepers[0][0] <= target:
            deadline, _, future = heapq.heappop(self._sleepers)
            self._now = max(self._now, deadline)
            if not future.done():
                future.set_result(None)
            await self.settle()
        self._now = max(self._now, target)
        await self.settle()

    async def advance_until(
        self,
        predicate: Callable[[], bool],
        *,
        step: float = 0.01,
        max_steps: int = 10_000,
    ) -> float:
        """Advance in ``step`` increments until ``predicate()`` is true.

        Returns the virtual time at which the predicate first held.
        Raises ``TimeoutError`` after ``max_steps`` — the virtual
        analogue of a hung-test watchdog.
        """
        await self.settle()
        for _ in range(max_steps):
            if predicate():
                return self._now
            await self.advance(step)
        raise TimeoutError(
            f"predicate still false after {max_steps} virtual steps "
            f"({max_steps * step:.3f}s simulated)"
        )
