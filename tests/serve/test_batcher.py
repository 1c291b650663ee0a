"""Micro-batching: size-triggered, deadline-triggered, drain on close."""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.errors import ConfigurationError
from repro.serve import BatchPolicy, MicroBatcher, TenancyConfig, TenantScheduler
from repro.serve import VirtualClock

from .conftest import run


def make_batcher(clock, **policy_kwargs):
    scheduler = TenantScheduler(TenancyConfig(), clock)
    policy = BatchPolicy(**policy_kwargs)
    return MicroBatcher(scheduler, policy, clock), scheduler


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_delay_s=-0.01)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_delay_s=math.nan)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_delay_s=math.inf)
        assert BatchPolicy(max_delay_s=0.0).max_delay_s == 0.0


class TestMicroBatcher:
    def test_full_batch_dispatches_without_waiting(self):
        async def scenario():
            clock = VirtualClock()
            batcher, scheduler = make_batcher(
                clock, max_batch_size=3, max_delay_s=10.0
            )
            for i in range(3):
                scheduler.enqueue("t", i)
            batcher.notify()
            # No clock advance at all: the size trigger must fire alone.
            batch = await batcher.collect()
            return batch, clock.now()

        batch, now = run(scenario())
        assert batch == [0, 1, 2]
        assert now == 0.0

    def test_partial_batch_waits_out_the_deadline(self):
        async def scenario():
            clock = VirtualClock()
            batcher, scheduler = make_batcher(
                clock, max_batch_size=8, max_delay_s=0.05
            )
            scheduler.enqueue("t", "only")
            batcher.notify()
            task = asyncio.ensure_future(batcher.collect())
            await clock.advance(0.01)
            assert not task.done()  # deadline not yet reached
            await clock.advance(0.05)
            return task.result(), clock.now()

        batch, now = run(scenario())
        assert batch == ["only"]
        assert now == pytest.approx(0.06)

    def test_late_arrivals_join_until_size_cap(self):
        async def scenario():
            clock = VirtualClock()
            batcher, scheduler = make_batcher(
                clock, max_batch_size=2, max_delay_s=1.0
            )
            scheduler.enqueue("t", "first")
            batcher.notify()
            task = asyncio.ensure_future(batcher.collect())
            await clock.advance(0.1)
            assert not task.done()
            scheduler.enqueue("t", "second")
            batcher.notify()
            await clock.settle()
            return task.result(), clock.now()

        batch, now = run(scenario())
        assert batch == ["first", "second"]
        assert now == pytest.approx(0.1)  # size cap fired, not deadline

    def test_collect_blocks_until_work_arrives(self):
        async def scenario():
            clock = VirtualClock()
            batcher, scheduler = make_batcher(
                clock, max_batch_size=1, max_delay_s=0.05
            )
            task = asyncio.ensure_future(batcher.collect())
            await clock.advance(5.0)  # plenty of empty time
            assert not task.done()
            scheduler.enqueue("t", "late")
            batcher.notify()
            await clock.settle()
            return task.result()

        assert run(scenario()) == ["late"]

    def test_close_drains_partial_then_returns_none(self):
        async def scenario():
            clock = VirtualClock()
            batcher, scheduler = make_batcher(
                clock, max_batch_size=8, max_delay_s=60.0
            )
            scheduler.enqueue("t", "queued")
            batcher.notify()
            batcher.close()
            first = await batcher.collect()
            second = await batcher.collect()
            return first, second, batcher.closed

        first, second, closed = run(scenario())
        assert first == ["queued"]
        assert second is None
        assert closed

    def test_close_wakes_a_blocked_collect(self):
        async def scenario():
            clock = VirtualClock()
            batcher, _ = make_batcher(clock, max_batch_size=4, max_delay_s=0.05)
            task = asyncio.ensure_future(batcher.collect())
            await clock.settle()
            batcher.close()
            await clock.settle()
            return task.result()

        assert run(scenario()) is None
