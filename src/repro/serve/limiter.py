"""Per-tenant fairness: token-bucket rate limiting and round-robin dequeue.

A screening service fronting many clinics (tenants) has two fairness
problems, solved by two cooperating mechanisms:

- **Ingress**: one misbehaving client must not be able to fill the
  bounded queue by itself.  Each tenant gets a :class:`TokenBucket`
  (sustained rate plus burst); an empty bucket turns into an
  ``AdmissionRejected(reason="rate_limited")`` with an honest
  retry-after computed from the refill rate.
- **Egress**: among *admitted* work, a backlogged tenant must not starve
  the others.  :class:`TenantScheduler` keeps one FIFO lane per tenant
  and a ring of the lanes that hold work, served one request per turn,
  so with ``k`` tenants backlogged each waits at most ``k - 1``
  dequeues, however deep another tenant's backlog is.

All timing flows through the injected :class:`~repro.serve.clock.Clock`
so both mechanisms are exactly simulatable in tests.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Generic, Mapping, TypeVar

from ..errors import ConfigurationError
from .clock import Clock

__all__ = [
    "TenantPolicy",
    "TenancyConfig",
    "TokenBucket",
    "TenantScheduler",
]

T = TypeVar("T")


def _check_rate(rate_per_s: float) -> None:
    if not (math.isfinite(rate_per_s) and rate_per_s > 0):
        raise ConfigurationError(f"rate_per_s must be positive and finite, got {rate_per_s}")


def _check_burst(burst: float) -> None:
    if not (math.isfinite(burst) and burst >= 1):
        raise ConfigurationError(f"burst must be finite and >= 1, got {burst}")


@dataclass(frozen=True)
class TenantPolicy:
    """Admission limits for one tenant (or the default for all).

    Attributes
    ----------
    rate_per_s:
        Sustained admission rate for the tenant's token bucket, in
        requests per second.  ``None`` disables rate limiting.
    burst:
        Bucket capacity: how many requests may arrive back-to-back
        before the sustained rate applies.
    """

    rate_per_s: float | None = None
    burst: float = 8.0

    def __post_init__(self) -> None:
        if self.rate_per_s is not None:
            _check_rate(self.rate_per_s)
        _check_burst(self.burst)


@dataclass(frozen=True)
class TenancyConfig:
    """Per-tenant policy table with a default for unknown tenants."""

    default: TenantPolicy = field(default_factory=TenantPolicy)
    overrides: Mapping[str, TenantPolicy] = field(default_factory=dict)

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The policy governing ``tenant``."""
        return self.overrides.get(tenant, self.default)


class TokenBucket:
    """Classic token bucket on an injected clock.

    Starts full (``burst`` tokens); refills continuously at
    ``rate_per_s``.  :meth:`try_acquire` and :meth:`refund` are the
    only mutation points, so the bucket needs no locking inside a single
    event loop.
    """

    def __init__(self, rate_per_s: float, burst: float, clock: Clock) -> None:
        _check_rate(rate_per_s)
        _check_burst(burst)
        self._rate = float(rate_per_s)
        self._burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock.now()

    @property
    def tokens(self) -> float:
        """Tokens available right now (refill applied)."""
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        now = self._clock.now()
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self._burst, self._tokens + elapsed * self._rate)
        self._refilled_at = now

    def try_acquire(self, cost: float = 1.0) -> float:
        """Take ``cost`` tokens if available.

        Returns ``0.0`` on success, otherwise the seconds until the
        bucket will hold ``cost`` tokens — the honest retry-after for
        an ``AdmissionRejected(reason="rate_limited")``.
        """
        self._refill()
        if self._tokens >= cost:
            self._tokens -= cost
            return 0.0
        return (cost - self._tokens) / self._rate

    def refund(self, cost: float = 1.0) -> None:
        """Give back ``cost`` tokens taken for a request that was then refused."""
        self._refill()
        self._tokens = min(self._burst, self._tokens + cost)


@dataclass
class _Lane(Generic[T]):
    """One tenant's FIFO, token bucket and counts."""

    queue: deque = field(default_factory=deque)
    bucket: TokenBucket | None = None
    enqueued: int = 0
    dequeued: int = 0


class TenantScheduler(Generic[T]):
    """Per-tenant FIFO lanes drained round-robin.

    The ring holds every tenant with queued work, in the order its lane
    last became non-empty.  Each dequeue serves the lane at the head of
    the ring once and moves it to the tail if it still has work, so
    backlogged tenants take strict turns and a lane that empties simply
    leaves the ring: an idle tenant banks nothing.
    """

    def __init__(self, tenancy: TenancyConfig, clock: Clock) -> None:
        self._tenancy = tenancy
        self._clock = clock
        self._lanes: dict[str, _Lane[T]] = {}
        self._ring: deque[str] = deque()
        self._depth = 0

    @property
    def depth(self) -> int:
        """Total queued items across all tenants."""
        return self._depth

    @property
    def tenants(self) -> tuple[str, ...]:
        """Every tenant seen so far, in first-seen order."""
        return tuple(self._lanes)

    def depth_for(self, tenant: str) -> int:
        """Queued items for one tenant."""
        lane = self._lanes.get(tenant)
        return len(lane.queue) if lane is not None else 0

    def _lane(self, tenant: str) -> _Lane[T]:
        lane = self._lanes.get(tenant)
        if lane is None:
            policy = self._tenancy.policy_for(tenant)
            bucket = None
            if policy.rate_per_s is not None:
                bucket = TokenBucket(policy.rate_per_s, policy.burst, self._clock)
            lane = self._lanes[tenant] = _Lane(bucket=bucket)
        return lane

    def acquire_slot(self, tenant: str) -> float:
        """Charge the tenant's token bucket for one admission.

        Returns ``0.0`` when admitted, else the retry-after in seconds.
        Unlimited tenants always return ``0.0``.
        """
        lane = self._lane(tenant)
        if lane.bucket is None:
            return 0.0
        return lane.bucket.try_acquire()

    def refund_slot(self, tenant: str) -> None:
        """Return the token :meth:`acquire_slot` took for a refused request."""
        bucket = self._lane(tenant).bucket
        if bucket is not None:
            bucket.refund()

    def enqueue(self, tenant: str, item: T) -> None:
        """Append one admitted item to the tenant's FIFO lane."""
        lane = self._lane(tenant)
        if not lane.queue:
            self._ring.append(tenant)
        lane.queue.append(item)
        lane.enqueued += 1
        self._depth += 1

    def dequeue(self) -> T | None:
        """Next item in round-robin order, or ``None`` if empty."""
        if not self._ring:
            return None
        tenant = self._ring.popleft()
        lane = self._lanes[tenant]
        item = lane.queue.popleft()
        if lane.queue:
            self._ring.append(tenant)
        lane.dequeued += 1
        self._depth -= 1
        return item

    def drain(self) -> list[T]:
        """Remove and return every queued item in round-robin order."""
        items: list[T] = []
        while (item := self.dequeue()) is not None:
            items.append(item)
        return items

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-tenant enqueue/dequeue/backlog snapshot."""
        return {
            tenant: {
                "enqueued": lane.enqueued,
                "dequeued": lane.dequeued,
                "queued": len(lane.queue),
            }
            for tenant, lane in self._lanes.items()
        }
