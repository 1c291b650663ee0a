"""VirtualClock semantics: the foundation the serving suite stands on."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import Clock, MonotonicClock, VirtualClock

from .conftest import run


class TestProtocol:
    def test_both_clocks_satisfy_the_protocol(self):
        assert isinstance(MonotonicClock(), Clock)
        assert isinstance(VirtualClock(), Clock)

    def test_monotonic_clock_never_goes_backwards(self):
        clock = MonotonicClock()
        a = clock.now()
        b = clock.now()
        assert b >= a


class TestVirtualClock:
    def test_now_only_moves_when_advanced(self):
        clock = VirtualClock(start=5.0)
        assert clock.now() == 5.0
        clock.tick(1.5)
        assert clock.now() == 6.5

    def test_tick_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().tick(-0.1)

    def test_sleepers_wake_in_deadline_order(self):
        async def scenario():
            clock = VirtualClock()
            order: list[str] = []

            async def sleeper(name: str, delay: float):
                await clock.sleep(delay)
                order.append(name)

            tasks = [
                asyncio.ensure_future(sleeper("c", 0.3)),
                asyncio.ensure_future(sleeper("a", 0.1)),
                asyncio.ensure_future(sleeper("b", 0.2)),
            ]
            await clock.advance(0.5)
            assert all(t.done() for t in tasks)
            return order

        assert run(scenario()) == ["a", "b", "c"]

    def test_sleep_zero_is_a_pure_yield(self):
        async def scenario():
            clock = VirtualClock()
            await clock.sleep(0.0)  # must not require an advance
            return clock.now()

        assert run(scenario()) == 0.0

    def test_woken_task_can_sleep_again_within_one_advance(self):
        async def scenario():
            clock = VirtualClock()
            hops: list[float] = []

            async def hopper():
                for _ in range(3):
                    await clock.sleep(0.1)
                    hops.append(clock.now())

            task = asyncio.ensure_future(hopper())
            await clock.advance(1.0)
            assert task.done()
            return hops

        assert run(scenario()) == pytest.approx([0.1, 0.2, 0.3])

    def test_tick_past_the_target_is_not_undone(self):
        async def scenario():
            clock = VirtualClock()

            async def batch():
                await clock.sleep(0.005)
                clock.tick(0.02)  # a batch runner charging its cost

            task = asyncio.ensure_future(batch())
            await clock.advance(0.01)
            assert task.done()
            return clock.now()

        assert run(scenario()) == pytest.approx(0.025)

    def test_advance_until_returns_first_holding_time(self):
        async def scenario():
            clock = VirtualClock()
            flag: list[bool] = []

            async def setter():
                await clock.sleep(0.25)
                flag.append(True)

            asyncio.ensure_future(setter())
            at = await clock.advance_until(lambda: bool(flag), step=0.1)
            return at

        assert run(scenario()) == pytest.approx(0.3)

    def test_advance_until_times_out(self):
        async def scenario():
            clock = VirtualClock()
            with pytest.raises(TimeoutError):
                await clock.advance_until(lambda: False, step=0.1, max_steps=5)

        run(scenario())
