"""One serving path: every way to run a fleet agrees on a mixed fleet.

The one-shot kernel run, the process-shard run (``workers=2``), the
legacy per-instance oracle and a 2-shard async supervisor must give the
same statistics and the same per-instance cycles, events and delay
ticks — on a fleet that mixes instances with empty streams (which never
reach a shard) and streams given in reverse time order (which every
path must serve sorted by time).  Checked untimed and with
``timing=fixed:3``.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict

import numpy as np
import pytest

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.runtime import FleetSimulator, ModuleAssignment, parse_timing
from repro.service import FleetSupervisor, InjectBatch, events_to_injects

ATM = build_atm_server_net()
ASSIGNMENT = ModuleAssignment.from_groups(MODULE_PARTITION)
EMPTY = (0, 5, 6, 11)
REVERSED = (1, 4, 7, 10)


def mixed_fleet():
    streams = make_fleet_testbench(12, cells=4, seed=31)
    for i in EMPTY:
        streams[i] = []
    for i in REVERSED:
        streams[i] = list(reversed(streams[i]))
    return streams


def run_async_supervisor(streams, timing):
    async def go():
        supervisor = FleetSupervisor(ATM, ASSIGNMENT, shards=2, timing=timing)
        await supervisor.start()
        injects = events_to_injects(streams)
        for lo in range(0, len(injects), 13):
            await supervisor.inject(
                InjectBatch(events=tuple(injects[lo : lo + 13]))
            )
        return await supervisor.stop(drain=True)

    return asyncio.run(go())


def per_instance(result):
    ticks = result.instance_ticks
    return (
        result.instance_cycles.tolist(),
        result.instance_events.tolist(),
        None if ticks is None else ticks.tolist(),
    )


@pytest.mark.parametrize("timing_spec", ["none", "fixed:3"])
def test_mixed_fleet_identical_on_every_path(timing_spec):
    streams = mixed_fleet()
    assert any(
        stream[0].time > stream[-1].time for stream in streams if stream
    ), "the fleet must hold at least one stream in reverse time order"
    timing = parse_timing(timing_spec, ATM, seed=3)

    def simulator(engine="compiled"):
        return FleetSimulator(ATM, ASSIGNMENT, engine=engine, timing=timing)

    one_shot = simulator().run(streams)
    sharded = simulator().run(streams, workers=2)
    legacy = simulator("legacy").run(streams)

    assert one_shot.instances == len(streams)
    assert one_shot.stats.events_processed == sum(map(len, streams))
    assert (one_shot.instance_events[list(EMPTY)] == 0).all()
    for other in (sharded, legacy):
        assert asdict(other.stats) == asdict(one_shot.stats)
        assert per_instance(other) == per_instance(one_shot)

    # the supervisor only knows the instances it was sent events for;
    # those rows, ordered by key, must match exactly
    served = run_async_supervisor(streams, timing)
    present = [i for i, stream in enumerate(streams) if stream]
    assert asdict(served.stats) == asdict(one_shot.stats)
    cycles, events, ticks = per_instance(one_shot)
    assert per_instance(served) == (
        [cycles[i] for i in present],
        [events[i] for i in present],
        None if ticks is None else [ticks[i] for i in present],
    )


def test_workers_with_the_legacy_engine_is_rejected():
    streams = mixed_fleet()
    legacy = FleetSimulator(ATM, ASSIGNMENT, engine="legacy")
    with pytest.raises(ValueError, match="compiled kernel"):
        legacy.run(streams, workers=2)


def test_workers_on_an_all_empty_fleet():
    result = FleetSimulator(ATM, ASSIGNMENT).run([[], [], []], workers=2)
    assert result.instance_cycles.tolist() == [0, 0, 0]
    assert result.instance_events.tolist() == [0, 0, 0]
    assert result.stats.events_processed == 0
