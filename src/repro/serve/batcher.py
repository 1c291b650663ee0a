"""Deadline/size micro-batching over the tenant scheduler.

The batch executor amortizes pool dispatch and plan-cache reuse over
many recordings, so the service never feeds it single requests when
traffic allows better.  :class:`MicroBatcher` implements the standard
micro-batching policy:

- dispatch as soon as ``max_batch_size`` requests are collected, or
- when the oldest collected request has waited ``max_delay_s``,
  whichever comes first.

Under load the batcher runs full batches back to back (throughput
mode); at low rates a lone request pays at most ``max_delay_s`` of
batching latency (latency mode).  The deadline is measured on the
injected clock, so both modes are exactly simulatable.

Requests are pulled from the :class:`~repro.serve.limiter.TenantScheduler`
in round-robin order, which is where per-tenant fairness becomes
per-*batch* composition: a backlogged tenant fills at most its turn of
each batch while any other tenant has work queued.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from .clock import Clock, wait_for_event
from .limiter import TenantScheduler
from .queue import PendingRequest

__all__ = ["BatchPolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batch coalescing policy.

    Attributes
    ----------
    max_batch_size:
        Dispatch immediately once this many requests are collected.
    max_delay_s:
        Longest a collected request may wait for co-travellers before
        a partial batch is dispatched anyway.
    """

    max_batch_size: int = 8
    max_delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if not (math.isfinite(self.max_delay_s) and self.max_delay_s >= 0):
            raise ConfigurationError(
                f"max_delay_s must be finite and >= 0, got {self.max_delay_s}"
            )


class MicroBatcher:
    """Collects queued requests into deadline/size-bounded batches."""

    def __init__(
        self, scheduler: TenantScheduler, policy: BatchPolicy, clock: Clock
    ) -> None:
        self.policy = policy
        self._scheduler = scheduler
        self._clock = clock
        self._wake = asyncio.Event()
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def notify(self) -> None:
        """Signal that new work was enqueued (wakes a waiting collect)."""
        self._wake.set()

    def close(self) -> None:
        """Stop batching: pending collects drain and then return None."""
        self._closed = True
        self._wake.set()

    async def collect(self) -> list[PendingRequest] | None:
        """The next micro-batch, or ``None`` when closed and drained.

        Blocks (on the clock) until at least one request is available,
        then applies the size/deadline policy.  After :meth:`close`,
        whatever is queued is returned immediately — partial batches
        included — so shutdown never strands admitted work.
        """
        while self._scheduler.depth == 0:
            if self._closed:
                return None
            self._wake.clear()
            await wait_for_event(self._clock, self._wake, None)

        deadline = self._clock.now() + self.policy.max_delay_s
        batch: list[PendingRequest] = []
        while len(batch) < self.policy.max_batch_size:
            item = self._scheduler.dequeue()
            if item is not None:
                batch.append(item)
                continue
            if self._closed:
                break
            remaining = deadline - self._clock.now()
            if remaining <= 0:
                break
            self._wake.clear()
            await wait_for_event(self._clock, self._wake, remaining)
        return batch
