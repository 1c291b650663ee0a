"""Round-robin fairness: the service's ring of per-tenant FIFO lanes.

Every request carries its own participant id, so the batch log reads
each micro-batch's composition in dequeue order.
"""

from __future__ import annotations

import asyncio

from repro.serve import ScreeningRequest, ScreeningService, VirtualClock

from .conftest import batch_log, run, ticking_runner


class TestTenantScheduler:
    def test_single_tenant_is_fifo(self, executor, serve_recordings):
        log = batch_log(
            executor,
            serve_recordings[0],
            [[("t0", "a"), ("t0", "b"), ("t0", "c")]],
            max_batch_size=2,
        )
        assert [names for _, names in log] == [["a", "b"], ["c"]]

    def test_backlogged_tenants_take_turns(self, executor, serve_recordings):
        # A lane that empties leaves the ring; the others keep turns.
        arrivals = (
            [("a", f"a{i}") for i in range(2)]
            + [("b", f"b{i}") for i in range(4)]
            + [("c", "c0")]
        )
        log = batch_log(
            executor, serve_recordings[0], [arrivals], max_batch_size=8
        )
        assert [names for _, names in log] == [
            ["a0", "b0", "c0", "a1", "b1", "b2", "b3"]
        ]

    def test_idle_lane_does_not_bank_credit(self, executor, serve_recordings):
        # b is idle for several full cycles of a-only traffic.
        idle_b = [("a", f"a{i}") for i in range(5)]
        # Then both become backlogged: b gets one turn per cycle, not
        # extra turns for the cycles it sat idle.
        both = [("a", f"x{i}") for i in range(2)] + [
            ("b", f"y{i}") for i in range(6)
        ]
        log = batch_log(
            executor, serve_recordings[0], [idle_b, both], max_batch_size=3
        )
        cycle = next(names for _, names in log if names[0].startswith("x"))
        assert cycle.count("x0") + cycle.count("x1") >= 1
        assert sum(1 for item in cycle if item.startswith("y")) == 1

    def test_depth_bookkeeping_and_drain(self, executor, serve_recordings):
        async def scenario():
            clock = VirtualClock()
            service = ScreeningService(
                executor, clock=clock, runner=ticking_runner(clock, 0.0)
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit(
                        ScreeningRequest(name, tenant, serve_recordings[0])
                    )
                )
                for tenant, name in (("a", "1"), ("b", "2"), ("a", "3"))
            ]
            # One yield runs every submission; the loop has not woken.
            await asyncio.sleep(0)
            queued = service._depth
            await service.stop()
            return queued, service._depth, service._lanes, tasks

        queued, depth, lanes, tasks = run(scenario())
        assert queued == 3
        assert sorted(task.result().request_id for task in tasks) == ["1", "2", "3"]
        assert depth == 0
        assert not lanes
