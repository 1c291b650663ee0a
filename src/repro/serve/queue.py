"""Bounded request queue: admission control and backpressure.

The service's front door.  Every screening request passes one
:class:`AdmissionController` before it may occupy queue space; the
controller answers with either *admitted* or a typed
:class:`~repro.errors.AdmissionRejected` carrying a machine-readable
reason and an honest retry-after — never by silently dropping work or
letting the queue grow without bound.

Two gates, checked in order:

1. **Rate limit** — the tenant's token bucket (see
   :mod:`repro.serve.limiter`); retry-after is the bucket refill time.
2. **Queue depth** — a hard cap on admitted-but-undispatched requests.
   Full queue means the caller is asked to back off for roughly the
   time the backlog takes to drain.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Callable

from ..errors import AdmissionRejected, ConfigurationError
from ..simulation.session import Recording

__all__ = [
    "ScreeningRequest",
    "PendingRequest",
    "AdmissionPolicy",
    "AdmissionController",
]


@dataclass(frozen=True)
class ScreeningRequest:
    """One screening job: a recording, its tenant, and a caller id."""

    request_id: str
    tenant: str
    recording: Recording


@dataclass
class PendingRequest:
    """An admitted request waiting in the queue for a micro-batch.

    ``future`` resolves to the service's response; ``admitted_at`` is
    clock time at admission, the start of the queue-wait measurement.
    """

    request: ScreeningRequest
    future: asyncio.Future = field(repr=False)
    admitted_at: float = 0.0


@dataclass(frozen=True)
class AdmissionPolicy:
    """Backpressure envelope of the bounded request queue.

    Attributes
    ----------
    max_queue_depth:
        Hard cap on admitted-but-undispatched requests across all
        tenants.
    retry_after_floor_s:
        Minimum retry-after ever returned, so a rejected caller never
        busy-loops on a zero hint.
    """

    max_queue_depth: int = 256
    retry_after_floor_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        floor = self.retry_after_floor_s
        if not (math.isfinite(floor) and floor >= 0):
            raise ConfigurationError(
                f"retry_after_floor_s must be finite and >= 0, got {floor}"
            )


class AdmissionController:
    """Decides, per request, between queue admission and typed rejection."""

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy

    def _retry_after(self, estimate_s: float) -> float:
        return max(self.policy.retry_after_floor_s, estimate_s)

    def check(
        self, *, depth: int, rate_wait_s: float, drain_ms: Callable[[], float]
    ) -> None:
        """Raise :class:`AdmissionRejected` unless the request may enter.

        Parameters
        ----------
        depth:
            Current admitted-but-undispatched queue depth.
        rate_wait_s:
            Token-bucket verdict for the tenant: ``0.0`` if a token was
            taken, else seconds until one is available.
        drain_ms:
            Estimated time for the queued backlog to drain, called only
            to size a full queue's retry-after.
        """
        if rate_wait_s > 0:
            raise AdmissionRejected(
                f"tenant rate limit exceeded; retry in {rate_wait_s:.3f}s",
                reason="rate_limited",
                retry_after_s=self._retry_after(rate_wait_s),
            )
        if depth >= self.policy.max_queue_depth:
            raise AdmissionRejected(
                f"request queue at capacity ({depth}/"
                f"{self.policy.max_queue_depth})",
                reason="queue_full",
                retry_after_s=self._retry_after(drain_ms() / 1e3),
            )
