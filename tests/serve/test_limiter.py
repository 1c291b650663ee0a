"""Token-bucket rate limiting and round-robin fairness."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    TenancyConfig,
    TenantPolicy,
    TenantScheduler,
    TokenBucket,
    VirtualClock,
)


class TestTokenBucket:
    def test_burst_then_honest_retry_after(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        # Empty: one token at 10/s is 0.1 s away, exactly.
        assert bucket.try_acquire() == pytest.approx(0.1)

    def test_refill_tracks_virtual_time(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0, clock=clock)
        bucket.try_acquire()
        bucket.try_acquire()
        clock.tick(0.05)  # half a token back
        assert bucket.try_acquire() == pytest.approx(0.05)
        clock.tick(0.1)
        assert bucket.try_acquire() == 0.0

    def test_refund_returns_a_token_capped_at_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate_per_s=0.1, burst=1.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        bucket.refund()
        assert bucket.try_acquire() == 0.0
        bucket.refund()
        bucket.refund()
        assert bucket.tokens == pytest.approx(1.0)

    def test_tokens_cap_at_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=3.0, clock=clock)
        clock.tick(60.0)
        assert bucket.tokens == pytest.approx(3.0)

    def test_validation(self):
        clock = VirtualClock()
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_per_s=0.0, burst=2.0, clock=clock)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_per_s=1.0, burst=0.5, clock=clock)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                TokenBucket(rate_per_s=value, burst=2.0, clock=clock)
            with pytest.raises(ConfigurationError):
                TokenBucket(rate_per_s=1.0, burst=value, clock=clock)


class TestTenantPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantPolicy(rate_per_s=-1.0)
        with pytest.raises(ConfigurationError):
            TenantPolicy(burst=0.0)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                TenantPolicy(rate_per_s=value)
            with pytest.raises(ConfigurationError):
                TenantPolicy(burst=value)
        assert TenantPolicy(rate_per_s=None).rate_per_s is None

    def test_overrides_fall_back_to_default(self):
        tenancy = TenancyConfig(
            default=TenantPolicy(rate_per_s=1.0),
            overrides={"vip": TenantPolicy(rate_per_s=3.0)},
        )
        assert tenancy.policy_for("vip").rate_per_s == 3.0
        assert tenancy.policy_for("anyone-else").rate_per_s == 1.0


def make_scheduler(**overrides) -> TenantScheduler:
    tenancy = TenancyConfig(
        default=TenantPolicy(),
        overrides={t: p for t, p in overrides.items()},
    )
    return TenantScheduler(tenancy, VirtualClock())


class TestTenantScheduler:
    def test_single_tenant_is_fifo(self):
        sched = make_scheduler()
        for item in "abc":
            sched.enqueue("t0", item)
        assert [sched.dequeue() for _ in range(3)] == ["a", "b", "c"]
        assert sched.dequeue() is None

    def test_backlogged_tenants_take_turns(self):
        # A lane that empties leaves the ring; the others keep turns.
        sched = make_scheduler()
        for i in range(2):
            sched.enqueue("a", f"a{i}")
        for i in range(4):
            sched.enqueue("b", f"b{i}")
        sched.enqueue("c", "c0")
        order = [sched.dequeue() for _ in range(7)]
        assert order == ["a0", "b0", "c0", "a1", "b1", "b2", "b3"]
        assert sched.dequeue() is None

    def test_no_starvation_under_hot_tenant(self):
        # Even with a 100-deep hot backlog, the light tenant's lone
        # request is served within one scheduling cycle.
        sched = make_scheduler()
        for i in range(100):
            sched.enqueue("hot", f"h{i}")
        sched.enqueue("light", "L")
        first_cycle = [sched.dequeue() for _ in range(6)]
        assert "L" in first_cycle

    def test_idle_lane_does_not_bank_credit(self):
        sched = make_scheduler()
        # b is idle for several full cycles of a-only traffic.
        for i in range(5):
            sched.enqueue("a", f"a{i}")
        for _ in range(5):
            sched.dequeue()
        # Now both become backlogged: b gets one turn per cycle, not
        # extra turns for the cycles it sat idle.
        for i in range(2):
            sched.enqueue("a", f"x{i}")
        for i in range(6):
            sched.enqueue("b", f"y{i}")
        cycle = [sched.dequeue() for _ in range(3)]
        assert cycle.count("x0") + cycle.count("x1") >= 1
        assert sum(1 for item in cycle if item.startswith("y")) == 1

    def test_depth_bookkeeping_and_drain(self):
        sched = make_scheduler()
        sched.enqueue("a", 1)
        sched.enqueue("b", 2)
        sched.enqueue("a", 3)
        assert sched.depth == 3
        assert sched.depth_for("a") == 2
        assert sorted(sched.drain()) == [1, 2, 3]
        assert sched.depth == 0

    def test_acquire_slot_unlimited_tenant_is_free(self):
        sched = make_scheduler()
        for _ in range(1000):
            assert sched.acquire_slot("t0") == 0.0

    def test_acquire_slot_enforces_rate(self):
        tenancy = TenancyConfig(
            default=TenantPolicy(rate_per_s=5.0, burst=2.0)
        )
        sched = TenantScheduler(tenancy, VirtualClock())
        assert sched.acquire_slot("t") == 0.0
        assert sched.acquire_slot("t") == 0.0
        assert sched.acquire_slot("t") == pytest.approx(0.2)

    def test_stats_snapshot(self):
        sched = make_scheduler()
        sched.enqueue("a", 1)
        sched.enqueue("a", 2)
        sched.dequeue()
        stats = sched.stats()
        assert stats["a"] == {
            "enqueued": 2,
            "dequeued": 1,
            "queued": 1,
        }
