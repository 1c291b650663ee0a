"""Size-only micro-batching over the tenant scheduler.

The batch executor amortizes pool dispatch and plan-cache reuse over
many recordings, so the service hands it everything that is waiting
rather than one request at a time.  :class:`MicroBatcher` is
work-conserving: it blocks only while the queue is empty, and then
returns every queued request, up to ``max_batch_size``, without
waiting for co-travellers.

The service dispatches each batch synchronously on the event loop, so
requests that arrive while a batch runs queue up and leave together as
the next batch: under load batches fill by themselves, and a lone
request never pays a coalescing wait.  The service yields once after
each batch, so that batch's callers resume before the next one runs.

Requests are pulled from the :class:`~repro.serve.limiter.TenantScheduler`
in round-robin order, which is where per-tenant fairness becomes
per-*batch* composition: a backlogged tenant fills at most its turn of
each batch while any other tenant has work queued.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from ..errors import ConfigurationError
from .limiter import TenantScheduler
from .queue import PendingRequest

__all__ = ["BatchPolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batch size policy.

    Attributes
    ----------
    max_batch_size:
        Most requests one batch carries; the rest wait for the next.
    """

    max_batch_size: int = 8

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )


class MicroBatcher:
    """Hands out whatever is queued, in size-bounded batches."""

    def __init__(self, scheduler: TenantScheduler, policy: BatchPolicy) -> None:
        self.policy = policy
        self._scheduler = scheduler
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

        Blocks until at least one request is queued, then returns every
        queued request up to ``max_batch_size`` without suspending, so
        a returned batch never waits on the batcher.  After
        :meth:`close`, whatever is queued is still returned, so shutdown
        never strands admitted work.
        """
        while self._scheduler.depth == 0:
            if self._closed:
                return None
            self._wake.clear()
            await self._wake.wait()
        batch: list[PendingRequest] = []
        while len(batch) < self.policy.max_batch_size and (
            item := self._scheduler.dequeue()
        ) is not None:
            batch.append(item)
        return batch
