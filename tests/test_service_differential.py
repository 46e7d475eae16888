"""Differential pins for the service stack: every serving path is equal.

The refactor split `FleetSimulator` into the `FleetEngine` kernel plus
orchestration, and layered the always-on service on the same kernel.
These tests pin the acceptance criterion: for identical seeds and
streams, every path — the one-shot batch run (memoized or direct
kernel), a single-shard service, a multi-shard service, the
process-backed service, the socket ingest, and runs interrupted by
work-stealing migration — produces byte-identical `FleetResult`
contents (aggregate stats dict, per-instance cycle and event vectors).

The one-shot path itself is pinned against the *pre-refactor*
semantics by `tests/test_runtime_compiled_differential.py`, which
keeps requiring compiled == the per-instance reference oracle
(`repro.reference.run_fleet`); equality against the batch path here
therefore chains all the way back to the original string-keyed
reactive simulator.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict

import numpy as np
import pytest

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.petrinet.corpus import CORPUS_FAMILIES
from repro.runtime import FleetSimulator, ModuleAssignment, synthetic_streams
from repro.runtime.fleet import FleetEngine
from repro.service import (
    FleetSupervisor,
    IngestServer,
    InjectBatch,
    ServiceClient,
    events_to_injects,
)


def atm_case(instances=24, cells=6, seed=17):
    net = build_atm_server_net()
    assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
    streams = make_fleet_testbench(instances, cells=cells, seed=seed)
    return net, assignment, streams


def corpus_case(family="choice_fan", instances=16, events=8, seed=5):
    net = CORPUS_FAMILIES[family].build(seed, CORPUS_FAMILIES[family].spec(seed).param_dict)
    assignment = ModuleAssignment.single_task(net)
    streams = synthetic_streams(net, instances, events, seed=seed)
    return net, assignment, streams


def assert_results_identical(expected, actual):
    assert asdict(expected.stats) == asdict(actual.stats)
    assert np.array_equal(expected.instance_cycles, actual.instance_cycles)
    assert np.array_equal(expected.instance_events, actual.instance_events)


def run_service(net, assignment, streams, shards=1, backend="async", steal=None):
    """Feed the streams through a supervisor, return the drained result."""

    async def go():
        supervisor = FleetSupervisor(
            net, assignment, shards=shards, backend=backend
        )
        await supervisor.start()
        injects = events_to_injects(streams)
        half = len(injects) // 2
        for lo in range(0, half, 97):
            await supervisor.inject(
                InjectBatch(events=tuple(injects[lo : min(lo + 97, half)]))
            )
        if steal is not None:
            moved = await supervisor.rebalance(**steal)
            assert moved > 0
        for lo in range(half, len(injects), 97):
            await supervisor.inject(
                InjectBatch(events=tuple(injects[lo : lo + 97]))
            )
        return await supervisor.stop(drain=True)

    return asyncio.run(go())


class TestServiceEqualsBatch:
    """The acceptance pin: service results == the one-shot batch path."""

    def test_single_shard_async_equals_one_shot(self):
        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams, shards=1)
        assert_results_identical(expected, actual)

    def test_multi_shard_async_equals_one_shot(self):
        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams, shards=3)
        assert_results_identical(expected, actual)

    def test_process_backend_equals_one_shot(self):
        net, assignment, streams = atm_case(instances=12, cells=4)
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(
            net, assignment, streams, shards=2, backend="process"
        )
        assert_results_identical(expected, actual)

    def test_corpus_family_service_equals_one_shot(self):
        net, assignment, streams = corpus_case()
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(net, assignment, streams, shards=2)
        assert_results_identical(expected, actual)

    def test_work_stealing_preserves_equality(self):
        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        actual = run_service(
            net,
            assignment,
            streams,
            shards=2,
            steal={"source": 0, "target": 1, "count": 4},
        )
        assert_results_identical(expected, actual)

    def test_socket_ingest_equals_one_shot(self):
        net, assignment, streams = atm_case(instances=10, cells=4)
        expected = FleetSimulator(net, assignment).run(streams)

        async def go():
            supervisor = FleetSupervisor(net, assignment, shards=2)
            await supervisor.start()
            server = IngestServer(supervisor, port=0)
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            injects = events_to_injects(streams)
            await client.inject_batch(injects[: len(injects) // 2])
            for inject in injects[len(injects) // 2 :]:
                await client.inject(
                    inject.instance, inject.source, inject.time, inject.choices
                )
            snapshot = await client.snapshot()
            assert snapshot.events == expected.stats.events_processed
            await client.close()
            await server.stop()
            return await supervisor.stop(drain=True)

        assert_results_identical(expected, asyncio.run(go()))


class TestKernelPaths:
    """Memoized cascades, the direct loop, flush and disable all agree."""

    @pytest.mark.parametrize("case", [atm_case, corpus_case])
    def test_memo_equals_direct(self, case):
        net, assignment, streams = case()
        memoized = FleetSimulator(net, assignment).run(streams)
        direct_sim = FleetSimulator(net, assignment)
        direct_sim.kernel._memo_enabled = False
        direct = direct_sim.run(streams)
        assert_results_identical(memoized, direct)
        assert not direct_sim.kernel._memo_active

    def test_memo_flush_and_disable_preserve_results(self, monkeypatch):
        import repro.runtime.fleet as fleet_mod

        net, assignment, streams = atm_case()
        expected = FleetSimulator(net, assignment).run(streams)
        # a tiny limit forces a flush on nearly every round and then the
        # permanent fallback to the direct loop mid-run
        monkeypatch.setattr(fleet_mod, "MEMO_STATE_LIMIT", 2)
        constrained = FleetSimulator(net, assignment)
        actual = constrained.run(streams)
        assert_results_identical(expected, actual)
        assert not constrained.kernel._memo_active

    def test_warm_kernel_rerun_is_identical(self):
        net, assignment, streams = atm_case()
        simulator = FleetSimulator(net, assignment)
        first = simulator.run(streams)
        second = simulator.run(streams)  # reset() keeps the memo warm
        assert_results_identical(first, second)

    def test_budget_stop_accounting_matches(self):
        net, assignment, streams = atm_case(instances=8, cells=4)
        expected = FleetSimulator(
            net, assignment, max_firings_per_event=8, on_budget="stop"
        ).run(streams)
        supervisor_result = asyncio.run(self._budget_service(net, assignment, streams))
        assert_results_identical(expected, supervisor_result)
        assert expected.stats.budget_stops > 0

    @staticmethod
    async def _budget_service(net, assignment, streams):
        supervisor = FleetSupervisor(
            net,
            assignment,
            shards=2,
            max_firings_per_event=8,
            on_budget="stop",
        )
        await supervisor.start()
        for inject in events_to_injects(streams):
            await supervisor.inject(inject)
        return await supervisor.stop(drain=True)


class TestInstanceMigration:
    """export/import moves exactly the per-instance state, nothing else."""

    def test_export_import_round_trip(self):
        net, assignment, streams = atm_case(instances=4, cells=3)
        simulator = FleetSimulator(net, assignment)
        simulator.run(streams)
        kernel = simulator.kernel
        state = kernel.export_instance(2)
        other = FleetEngine(kernel.cnet, assignment)
        row = other.import_instance(state)
        assert other.instance_cycles()[row] == state[1]
        assert other.instance_events()[row] == state[2]
        marking, _, _, ticks = state
        assert other.export_instance(row)[0] == marking
        # pre-timing 3-tuple snapshots still import (ticks default to 0)
        legacy_row = other.import_instance(state[:3])
        assert other.export_instance(legacy_row)[3] == 0
        assert ticks == 0  # untimed run charges no delay

    def test_remove_instance_swaps_last_row(self):
        net, assignment, _ = atm_case(instances=1, cells=1)
        engine = FleetEngine(net, assignment, instances=3)
        engine._cycles[:3] = [10, 20, 30]
        moved_from = engine.remove_instance(0)
        assert moved_from == 2
        assert engine.instances == 2
        assert engine.instance_cycles().tolist() == [30, 20]
