"""A failed shard fails its requests instead of hanging them.

A worker process that is SIGKILLed closes its pipe; every request that
was waiting on it, and every later one, must end in
:class:`~repro.service.ShardFailed` carrying the shard and its exit
code.  A worker whose kernel raises sends that error back before it
exits, so ``FleetSimulator.run(workers=N)`` raises the same error an
in-process run does.  An async shard whose kernel raises fails the
requests it had drained, and every later one, with that error.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.petrinet import NetBuilder
from repro.runtime import Event, FleetSimulator, ModuleAssignment
from repro.service import (
    FleetSupervisor,
    InjectBatch,
    InjectEvent,
    ShardFailed,
    events_to_injects,
)

ATM = build_atm_server_net()
ASSIGNMENT = ModuleAssignment.from_groups(MODULE_PARTITION)
#: a source feeding a self-sustaining loop: an event never quiesces
SPINNER = (
    NetBuilder("spinner")
    .source("t_src")
    .arc("t_src", "p_fuel")
    .arc("p_fuel", "t_spin")
    .arc("t_spin", "p_fuel")
    .build()
)


def test_sigkill_fails_a_pending_snapshot_and_later_requests():
    async def go():
        supervisor = FleetSupervisor(
            ATM, ASSIGNMENT, shards=2, backend="process"
        )
        await supervisor.start()
        injects = events_to_injects(make_fleet_testbench(8, cells=2, seed=3))
        await supervisor.inject(InjectBatch(events=tuple(injects)))
        victim = supervisor._handles[1]._process
        # freeze the worker so the snapshot is surely still pending
        # when the kill lands
        os.kill(victim.pid, signal.SIGSTOP)
        pending = asyncio.create_task(supervisor.snapshot())
        await asyncio.sleep(0.2)
        assert not pending.done()
        os.kill(victim.pid, signal.SIGKILL)
        with pytest.raises(ShardFailed) as failed:
            await asyncio.wait_for(pending, 10)
        assert failed.value.shard == 1
        assert failed.value.exitcode == -signal.SIGKILL
        # the dead shard fails fast from now on, sends included
        with pytest.raises(ShardFailed):
            await asyncio.wait_for(supervisor.snapshot(), 10)
        with pytest.raises(ShardFailed):
            await asyncio.wait_for(
                supervisor.inject(InjectBatch(events=tuple(injects))), 10
            )
        with pytest.raises(ShardFailed):
            await asyncio.wait_for(supervisor.stop(drain=True), 10)

    asyncio.run(go())


def test_worker_error_propagates_through_workers_run():
    streams = [[Event(time=0, source="t_src")] for _ in range(3)]
    fleet = FleetSimulator(
        SPINNER, ModuleAssignment.single_task(SPINNER), max_firings_per_event=8
    )
    with pytest.raises(RuntimeError, match="did not quiesce"):
        fleet.run(streams, workers=2)


@pytest.mark.parametrize("same_drain", [True, False], ids=["same-drain", "later"])
def test_async_kernel_error_fails_pending_and_later_requests(same_drain):
    async def go():
        supervisor = FleetSupervisor(
            SPINNER,
            ModuleAssignment.single_task(SPINNER),
            max_firings_per_event=8,
            shards=2,
        )
        await supervisor.start()
        spin = InjectEvent(instance=0, source="t_src")
        await supervisor.inject(spin)
        if not same_drain:
            # let shard 0's actor serve the inject, and fail, on its own
            await asyncio.sleep(0.05)
        for request in (
            supervisor.snapshot,
            lambda: supervisor.inject(spin),
            supervisor.reload,
            lambda: supervisor.stop(drain=True),
        ):
            with pytest.raises(RuntimeError, match="did not quiesce"):
                await asyncio.wait_for(request(), 3)
        # every actor task has ended, and none of them with an exception
        assert all(task.done() for task in supervisor._tasks)
        assert all(task.exception() is None for task in supervisor._tasks)

    asyncio.run(go())
