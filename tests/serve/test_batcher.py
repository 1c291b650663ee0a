"""Micro-batching: whatever is queued leaves at once, size-capped; drain on close."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.serve import BatchPolicy, MicroBatcher, TenancyConfig, TenantScheduler
from repro.serve import VirtualClock

from .conftest import run


def make_batcher(clock, **policy_kwargs):
    scheduler = TenantScheduler(TenancyConfig(), clock)
    policy = BatchPolicy(**policy_kwargs)
    return MicroBatcher(scheduler, policy), scheduler


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch_size=0)
        assert BatchPolicy(max_batch_size=1).max_batch_size == 1


class TestMicroBatcher:
    def test_full_batch_dispatches_without_waiting(self):
        async def scenario():
            clock = VirtualClock()
            batcher, scheduler = make_batcher(clock, max_batch_size=3)
            for i in range(3):
                scheduler.enqueue("t", i)
            batcher.notify()
            # No clock advance at all: the size trigger must fire alone.
            batch = await batcher.collect()
            return batch, clock.now()

        batch, now = run(scenario())
        assert batch == [0, 1, 2]
        assert now == 0.0

    def test_lone_request_leaves_at_once(self):
        async def scenario():
            clock = VirtualClock()
            batcher, scheduler = make_batcher(clock, max_batch_size=8)
            scheduler.enqueue("t", "only")
            batcher.notify()
            # No clock advance: a partial batch waits for nobody.
            batch = await batcher.collect()
            return batch, clock.now()

        batch, now = run(scenario())
        assert batch == ["only"]
        assert now == 0.0

    def test_takes_everything_queued_up_to_the_size_cap(self):
        async def scenario():
            clock = VirtualClock()
            batcher, scheduler = make_batcher(clock, max_batch_size=2)
            for item in ("first", "second", "third"):
                scheduler.enqueue("t", item)
            batcher.notify()
            full = await batcher.collect()
            rest = await batcher.collect()
            # Work queued after a collect returned forms the next batch.
            scheduler.enqueue("t", "late")
            batcher.notify()
            late = await batcher.collect()
            return full, rest, late, clock.now()

        full, rest, late, now = run(scenario())
        assert (full, rest, late) == (["first", "second"], ["third"], ["late"])
        assert now == 0.0

    def test_collect_blocks_until_work_arrives(self):
        async def scenario():
            clock = VirtualClock()
            batcher, scheduler = make_batcher(clock, max_batch_size=1)
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
            batcher, scheduler = make_batcher(clock, max_batch_size=8)
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
            batcher, _ = make_batcher(clock, max_batch_size=4)
            task = asyncio.ensure_future(batcher.collect())
            await clock.settle()
            batcher.close()
            await clock.settle()
            return task.result()

        assert run(scenario()) is None
