"""``repro.serve`` — the online screening service over the batch runtime.

The offline stack processes whole studies; this package turns the same
:class:`~repro.runtime.executor.BatchExecutor` into a long-lived,
multi-tenant ingestion service:

- :mod:`~repro.serve.clock` — the injectable time source
  (:class:`MonotonicClock` in production, :class:`VirtualClock` in
  tests) behind every wait and latency measurement;
- :mod:`~repro.serve.queue` — bounded admission with typed
  backpressure (:class:`~repro.errors.AdmissionRejected`);
- :mod:`~repro.serve.limiter` — per-tenant token buckets and a
  round-robin ring of tenant lanes;
- :mod:`~repro.serve.batcher` — work-conserving, size-capped micro-batching;
- :mod:`~repro.serve.service` — :class:`ScreeningService`, tying the
  above together;
- ``python -m repro.serve`` — a JSONL serving front end and a seeded
  load generator (see :mod:`repro.serve.__main__`).

Quick use::

    service = ScreeningService(executor, fast_reject=QualityConfig())
    await service.start()
    response = await service.submit(
        ScreeningRequest("req-1", "clinic-a", recording)
    )
    await service.stop()
"""

from .batcher import BatchPolicy, MicroBatcher
from .clock import Clock, MonotonicClock, VirtualClock
from .limiter import TenancyConfig, TenantPolicy, TenantScheduler, TokenBucket
from .queue import AdmissionController, AdmissionPolicy, PendingRequest, ScreeningRequest
from .service import ScreeningResponse, ScreeningService

__all__ = [
    "Clock",
    "MonotonicClock",
    "VirtualClock",
    "AdmissionPolicy",
    "AdmissionController",
    "ScreeningRequest",
    "PendingRequest",
    "TenantPolicy",
    "TenancyConfig",
    "TokenBucket",
    "TenantScheduler",
    "BatchPolicy",
    "MicroBatcher",
    "ScreeningResponse",
    "ScreeningService",
]
