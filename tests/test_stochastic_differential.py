"""Differential pins for the timed/stochastic runtime: every path agrees.

The ISSUE 9 acceptance criterion: for a fixed seed, the timed and
stochastic fleet is deterministic and **byte-identical across engines**
— compiled vs the per-instance reference oracle
(:func:`repro.reference.run_fleet`), the memoized cascade path vs the
direct loop, the one-shot pool, and the async vs process shard
backends of the always-on service.  Tick accounting is integer on
purpose; these tests are the reason.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict

import numpy as np
import pytest

from repro import reference
from repro.apps import atm, heating, router
from repro.runtime import (
    FleetSimulator,
    ModuleAssignment,
    StochasticChoicePolicy,
    TimingModel,
    parse_timing,
    synthetic_streams,
)
from repro.service import FleetSupervisor, InjectBatch, events_to_injects

CASES = {
    "router": (
        router.build_router_net,
        router.MODULE_PARTITION,
        lambda n, e, s: router.make_fleet_testbench(n, packets=e, seed=s),
    ),
    "heating": (
        heating.build_heating_net,
        heating.MODULE_PARTITION,
        lambda n, e, s: heating.make_fleet_testbench(n, samples=e, seed=s),
    ),
    "atm-bursty": (
        atm.build_atm_server_net,
        atm.MODULE_PARTITION,
        lambda n, e, s: atm.make_fleet_testbench(
            n, cells=e, seed=s, arrival="bursty"
        ),
    ),
}


def timed_case(name, instances=14, events=6, seed=17, timing_spec="uniform:1-8"):
    build, partition, bench = CASES[name]
    net = build()
    assignment = ModuleAssignment.from_groups(partition)
    streams = bench(instances, events, seed)
    timing = parse_timing(timing_spec, net, seed=seed)
    return net, assignment, streams, timing


def assert_results_identical(expected, actual):
    assert asdict(expected.stats) == asdict(actual.stats)
    assert np.array_equal(expected.instance_cycles, actual.instance_cycles)
    assert np.array_equal(expected.instance_events, actual.instance_events)
    if expected.instance_ticks is None:
        assert actual.instance_ticks is None
    else:
        assert actual.instance_ticks is not None
        assert expected.instance_ticks.dtype == actual.instance_ticks.dtype
        assert np.array_equal(expected.instance_ticks, actual.instance_ticks)


def run_service(net, assignment, streams, timing, shards=2, backend="async"):
    async def go():
        supervisor = FleetSupervisor(
            net, assignment, shards=shards, backend=backend, timing=timing
        )
        await supervisor.start()
        injects = events_to_injects(streams)
        for lo in range(0, len(injects), 97):
            await supervisor.inject(
                InjectBatch(events=tuple(injects[lo : lo + 97]))
            )
        return await supervisor.stop(drain=True)

    return asyncio.run(go())


class TestTimedEngineEquality:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_compiled_equals_reference(self, case):
        net, assignment, streams, timing = timed_case(case)
        compiled = FleetSimulator(net, assignment, timing=timing).run(streams)
        oracle = reference.run_fleet(net, assignment, streams, timing=timing)
        assert compiled.stats.delay_ticks > 0
        assert_results_identical(compiled, oracle)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_memo_equals_direct(self, case):
        net, assignment, streams, timing = timed_case(case)
        memoized = FleetSimulator(net, assignment, timing=timing).run(streams)
        direct_sim = FleetSimulator(net, assignment, timing=timing)
        direct_sim.kernel._memo_enabled = False
        direct = direct_sim.run(streams)
        assert not direct_sim.kernel._memo_active
        assert_results_identical(memoized, direct)

    def test_pool_equals_in_process(self):
        net, assignment, streams, timing = timed_case("router")
        sequential = FleetSimulator(net, assignment, timing=timing).run(streams)
        pooled = FleetSimulator(net, assignment, timing=timing).run(
            streams, workers=3
        )
        assert_results_identical(sequential, pooled)

    def test_async_service_equals_one_shot(self):
        net, assignment, streams, timing = timed_case("router")
        expected = FleetSimulator(net, assignment, timing=timing).run(streams)
        actual = run_service(net, assignment, streams, timing, shards=2)
        assert_results_identical(expected, actual)

    def test_process_service_equals_one_shot(self):
        net, assignment, streams, timing = timed_case(
            "heating", instances=10, events=4
        )
        expected = FleetSimulator(net, assignment, timing=timing).run(streams)
        actual = run_service(
            net, assignment, streams, timing, shards=2, backend="process"
        )
        assert_results_identical(expected, actual)

    def test_fixed_seed_runs_are_identical(self):
        runs = []
        for _ in range(2):
            net, assignment, streams, timing = timed_case("router")
            runs.append(
                FleetSimulator(net, assignment, timing=timing).run(streams)
            )
        assert_results_identical(runs[0], runs[1])


class TestTickAccounting:
    def test_fixed_timing_scales_linearly(self):
        net, assignment, streams, _ = timed_case("heating")
        one = FleetSimulator(
            net, assignment, timing=TimingModel.constant(1)
        ).run(streams)
        three = FleetSimulator(
            net, assignment, timing=TimingModel.constant(3)
        ).run(streams)
        assert one.stats.delay_ticks > 0
        assert three.stats.delay_ticks == 3 * one.stats.delay_ticks
        assert np.array_equal(three.instance_ticks, 3 * one.instance_ticks)

    def test_instance_ticks_sum_to_aggregate(self):
        net, assignment, streams, timing = timed_case("router")
        result = FleetSimulator(net, assignment, timing=timing).run(streams)
        assert int(result.instance_ticks.sum()) == result.stats.delay_ticks

    def test_untimed_fleet_has_no_tick_surface(self):
        net, assignment, streams, _ = timed_case("router")
        result = FleetSimulator(net, assignment).run(streams)
        assert result.instance_ticks is None
        assert result.stats.delay_ticks == 0
        assert "delay ticks" not in result.describe()

    def test_timed_describe_reports_percentiles(self):
        net, assignment, streams, timing = timed_case("router")
        result = FleetSimulator(net, assignment, timing=timing).run(streams)
        assert "delay ticks" in result.describe()
        assert "per-instance delay ticks" in result.describe()


class TestStochasticStreamsAcrossEngines:
    @pytest.mark.parametrize("arrival", ["bursty", "diurnal"])
    def test_arrival_processes_equal_across_engines(self, arrival):
        net = router.build_router_net()
        assignment = ModuleAssignment.single_task(net)
        policy = StochasticChoicePolicy.sampled(net, seed=9)
        streams = synthetic_streams(
            net, 10, 8, seed=9, arrival=arrival, choice_policy=policy
        )
        compiled = FleetSimulator(net, assignment).run(streams)
        oracle = reference.run_fleet(net, assignment, streams)
        assert compiled.stats.events_processed == 80
        assert_results_identical(compiled, oracle)
