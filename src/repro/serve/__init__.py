"""``repro.serve`` — the online screening service over the batch runtime.

The offline stack processes whole studies; this package turns the same
:class:`~repro.runtime.executor.BatchExecutor` into a long-lived,
multi-tenant ingestion service:

- :mod:`~repro.serve.clock` — the injectable time source
  (:class:`MonotonicClock` in production, :class:`VirtualClock` in
  tests) behind every wait and latency measurement;
- :mod:`~repro.serve.service` — :class:`ScreeningService`: the
  pre-admission quality gate, a bounded queue with typed backpressure
  (:class:`~repro.errors.AdmissionRejected`), a round-robin ring of
  per-tenant lanes, and work-conserving, size-capped micro-batches
  dispatched to the executor;
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

from .clock import Clock, MonotonicClock, VirtualClock
from .service import ScreeningRequest, ScreeningResponse, ScreeningService

__all__ = [
    "Clock",
    "MonotonicClock",
    "VirtualClock",
    "ScreeningRequest",
    "ScreeningResponse",
    "ScreeningService",
]
