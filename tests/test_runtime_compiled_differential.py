"""Differential suite for the compiled runtime substrate.

Pins the oracle-equality contract: the reactive simulator, the RTOS/IR
interpreter, the SDF PASS simulation and the fleet simulator must
produce *identical* results to their :mod:`repro.reference` oracles
(the string-keyed token game, the IR tree walk, the dict-based PASS
loop and the per-instance fleet loop) — same :class:`ExecutionStats`
field for field (total cycles, breakdowns, per-task activations,
per-transition firings), same firing sequences, same per-instance cycle
vectors — on the paper gallery, the ATM case study and seeded corpus
nets.  Also pins fleet determinism under fixed seeds,
pool-vs-sequential equality and the firing-budget policies.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro import reference
from repro.codegen import synthesize
from repro.gallery import gallery_nets
from repro.petrinet import NetBuilder
from repro.petrinet.corpus import generate_corpus
from repro.qss import compute_valid_schedule
from repro.runtime import (
    RTOS,
    CostModel,
    Event,
    FleetSimulator,
    ModuleAssignment,
    ReactiveNetSimulator,
    synthetic_streams,
)
from repro.apps.atm import (
    MODULE_PARTITION,
    build_atm_server_net,
    make_fleet_testbench,
    make_testbench,
)
from repro.sdf import DeadlockError, SDFGraph, static_schedule

#: Per-event firing budget used when driving arbitrary generated nets:
#: corpus families include nets that never quiesce (token rings), so the
#: differential runs use the "stop" policy — which itself must behave
#: identically in the simulator and its oracle.
BUDGET = 64


def stats_dict(stats) -> dict:
    return asdict(stats)


def run_both_reactive(net, assignment, stream, **kwargs):
    oracle = reference.ReactiveSimulator(net, assignment, **kwargs)
    compiled = ReactiveNetSimulator(net, assignment, **kwargs)
    return oracle.run(stream), compiled.run(stream)


class TestReactiveEngines:
    @pytest.mark.parametrize(
        "figure,net", gallery_nets(), ids=[f for f, _ in gallery_nets()]
    )
    def test_gallery_stats_identical_single_task(self, figure, net):
        streams = synthetic_streams(net, 2, 12, seed=17)
        assignment = ModuleAssignment.single_task(net)
        for stream in streams:
            a, b = run_both_reactive(
                net,
                assignment,
                stream,
                max_firings_per_event=BUDGET,
                on_budget="stop",
            )
            assert stats_dict(a) == stats_dict(b)

    @pytest.mark.parametrize(
        "figure,net", gallery_nets(), ids=[f for f, _ in gallery_nets()]
    )
    def test_gallery_stats_identical_micro_tasks(self, figure, net):
        """One task per transition exercises every queue-crossing branch."""
        stream = synthetic_streams(net, 1, 10, seed=3)[0]
        assignment = ModuleAssignment.one_task_per_transition(net)
        a, b = run_both_reactive(
            net, assignment, stream, max_firings_per_event=BUDGET, on_budget="stop"
        )
        assert stats_dict(a) == stats_dict(b)

    def test_corpus_nets_stats_identical(self):
        for spec in generate_corpus(20, seed=11):
            net = spec.build()
            if not net.source_transitions():
                continue
            stream = synthetic_streams(net, 1, 15, seed=spec.seed)[0]
            a, b = run_both_reactive(
                net,
                ModuleAssignment.single_task(net),
                stream,
                max_firings_per_event=BUDGET,
                on_budget="stop",
            )
            assert stats_dict(a) == stats_dict(b), spec

    def test_atm_stats_identical_with_module_partition(self):
        net = build_atm_server_net()
        events = make_testbench(cells=10, seed=7)
        assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
        a, b = run_both_reactive(net, assignment, events)
        assert stats_dict(a) == stats_dict(b)
        assert a.queue_cycles > 0  # partition really crosses tasks

    def test_marking_and_reset_identical(self, fig5):
        assignment = ModuleAssignment.single_task(fig5)
        oracle = reference.ReactiveSimulator(fig5, assignment)
        compiled = ReactiveNetSimulator(fig5, assignment)
        event = Event(time=0, source="t1", choices={"p1": "t2"})
        oracle.run([event])
        compiled.run([event])
        assert compiled.marking == oracle.marking
        compiled.reset()
        oracle.reset()
        assert compiled.marking == oracle.marking == fig5.initial_marking

    def test_compiled_accepts_precompiled_net(self, fig3a):
        compiled_view = fig3a.compile()
        simulator = ReactiveNetSimulator(
            compiled_view, ModuleAssignment.single_task(fig3a)
        )
        stats = simulator.run([Event(time=0, source="t1", choices={"p1": "t2"})])
        assert stats.firings == {"t1": 1, "t2": 1, "t4": 1}

    @pytest.mark.parametrize(
        "simulator_cls",
        [reference.ReactiveSimulator, ReactiveNetSimulator],
        ids=["reference", "compiled"],
    )
    def test_budget_error_policy_raises(self, simulator_cls):
        net = _spinning_net()
        simulator = simulator_cls(
            net,
            ModuleAssignment.single_task(net),
            max_firings_per_event=10,
        )
        with pytest.raises(RuntimeError, match="did not quiesce"):
            simulator.run([Event(time=0, source="t_src")])

    def test_budget_stop_policy_identical(self):
        net = _spinning_net()
        a, b = run_both_reactive(
            net,
            ModuleAssignment.single_task(net),
            [Event(time=0, source="t_src"), Event(time=1, source="t_src")],
            max_firings_per_event=10,
            on_budget="stop",
        )
        assert stats_dict(a) == stats_dict(b)
        assert a.budget_stops == 2

    def test_unknown_budget_policy_rejected(self, fig3a):
        with pytest.raises(ValueError, match="unknown budget policy"):
            ReactiveNetSimulator(
                fig3a, ModuleAssignment.single_task(fig3a), on_budget="never"
            )


def _spinning_net():
    """A source feeding a self-sustaining loop: never quiesces."""
    return (
        NetBuilder("spinner")
        .source("t_src")
        .arc("t_src", "p_fuel")
        .arc("p_fuel", "t_spin")
        .arc("t_spin", "p_fuel")
        .build()
    )


class TestRtosEngines:
    @pytest.mark.parametrize("figure", ["fig3a", "fig5"])
    def test_gallery_programs_identical(self, figure, request):
        net = request.getfixturevalue(figure)
        program = synthesize(compute_valid_schedule(net))
        events = [
            Event(time=0.0, source="t1", choices={"p1": "t2"}),
            Event(time=1.0, source="t1", choices={"p1": "t3"}),
        ]
        if figure == "fig5":
            events.append(Event(time=2.0, source="t8"))
        oracle = reference.RTOS(program).run(events)
        compiled = RTOS(program).run(events)
        assert stats_dict(oracle) == stats_dict(compiled)

    def test_atm_program_identical(self, atm_report):
        from repro.qss import partition_tasks  # noqa: F401 - schedule sanity

        program = synthesize(atm_report.schedule)
        events = make_testbench(cells=10, seed=5)
        model = CostModel(activation_cycles=333)
        oracle = reference.RTOS(program, model).run(events)
        compiled = RTOS(program, model).run(events)
        assert stats_dict(oracle) == stats_dict(compiled)
        assert oracle.events_processed == len(events)

    def test_counters_and_reset_identical(self, fig3a):
        program = synthesize(compute_valid_schedule(fig3a))
        oracle = reference.RTOS(program)
        compiled = RTOS(program)
        event = Event(time=0, source="t1", choices={"p1": "t2"})
        oracle.run([event])
        compiled.run([event])
        for name in oracle.executor.tasks:
            assert (
                oracle.executor.tasks[name].counters
                == compiled.executor.tasks[name].counters
            )
        oracle.reset()
        compiled.reset()
        for name in oracle.executor.tasks:
            assert (
                oracle.executor.tasks[name].counters
                == compiled.executor.tasks[name].counters
            )


class TestFleetEngines:
    def test_fleet_matches_per_instance_reactive(self):
        net = build_atm_server_net()
        assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
        streams = make_fleet_testbench(6, cells=4, seed=99)
        fleet = FleetSimulator(net, assignment).run(streams)
        simulator = reference.ReactiveSimulator(net, assignment)
        for i, stream in enumerate(streams):
            simulator.reset()
            stats = simulator.run(stream)
            assert fleet.instance_cycles[i] == stats.total_cycles
            assert fleet.instance_events[i] == stats.events_processed

    def test_fleet_engines_identical_on_atm(self):
        net = build_atm_server_net()
        assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
        streams = make_fleet_testbench(10, cells=4, seed=42)
        oracle = reference.run_fleet(net, assignment, streams)
        compiled = FleetSimulator(net, assignment).run(streams)
        assert stats_dict(oracle.stats) == stats_dict(compiled.stats)
        assert np.array_equal(oracle.instance_cycles, compiled.instance_cycles)
        assert np.array_equal(oracle.instance_events, compiled.instance_events)

    def test_fleet_engines_identical_on_corpus(self):
        for spec in generate_corpus(12, seed=23):
            net = spec.build()
            if not net.source_transitions():
                continue
            streams = synthetic_streams(net, 4, 10, seed=spec.seed)
            kwargs = dict(max_firings_per_event=BUDGET, on_budget="stop")
            assignment = ModuleAssignment.single_task(net)
            oracle = reference.run_fleet(net, assignment, streams, **kwargs)
            compiled = FleetSimulator(net, assignment, **kwargs).run(streams)
            assert stats_dict(oracle.stats) == stats_dict(compiled.stats), spec
            assert np.array_equal(
                oracle.instance_cycles, compiled.instance_cycles
            ), spec

    def test_fleet_deterministic_under_fixed_seed(self):
        net = build_atm_server_net()
        assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
        first = FleetSimulator(net, assignment).run(
            make_fleet_testbench(8, cells=3, seed=5)
        )
        second = FleetSimulator(net, assignment).run(
            make_fleet_testbench(8, cells=3, seed=5)
        )
        assert stats_dict(first.stats) == stats_dict(second.stats)
        assert np.array_equal(first.instance_cycles, second.instance_cycles)
        different = FleetSimulator(net, assignment).run(
            make_fleet_testbench(8, cells=3, seed=6)
        )
        assert not np.array_equal(first.instance_cycles, different.instance_cycles)

    def test_fleet_pool_equals_sequential(self):
        net = build_atm_server_net()
        assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
        streams = make_fleet_testbench(9, cells=3, seed=12)
        fleet = FleetSimulator(net, assignment)
        sequential = fleet.run(streams)
        pooled = fleet.run(streams, workers=3)
        assert stats_dict(sequential.stats) == stats_dict(pooled.stats)
        assert np.array_equal(sequential.instance_cycles, pooled.instance_cycles)
        assert np.array_equal(sequential.instance_events, pooled.instance_events)

    def test_fleet_budget_policies(self):
        net = _spinning_net()
        streams = [[Event(time=0, source="t_src")] for _ in range(3)]
        assignment = ModuleAssignment.single_task(net)
        with pytest.raises(RuntimeError, match="did not quiesce"):
            FleetSimulator(
                net, assignment, max_firings_per_event=8
            ).run(streams)
        kwargs = dict(max_firings_per_event=8, on_budget="stop")
        oracle = reference.run_fleet(net, assignment, streams, **kwargs)
        compiled = FleetSimulator(net, assignment, **kwargs).run(streams)
        assert stats_dict(oracle.stats) == stats_dict(compiled.stats)
        assert compiled.stats.budget_stops == 3

    def test_fleet_result_summaries(self):
        net = build_atm_server_net()
        result = FleetSimulator(
            net, ModuleAssignment.single_task(net)
        ).run(make_fleet_testbench(4, cells=2, seed=1))
        percentiles = result.percentiles()
        assert set(percentiles) == {"p50", "p90", "p95", "p99"}
        assert percentiles["p50"] <= percentiles["p99"]
        text = result.describe()
        assert "fleet of 4 instance(s)" in text
        assert "per-instance cycles" in text
        assert result.throughput_eps > 0

    def test_empty_fleet(self):
        net = build_atm_server_net()
        result = FleetSimulator(net, ModuleAssignment.single_task(net)).run([])
        assert result.instances == 0
        assert result.stats.events_processed == 0
        assert result.percentile(95) == 0.0


class TestSdfEngines:
    def _chain(self):
        graph = SDFGraph("chain")
        graph.add_actor("a", cost=2)
        graph.add_actor("b", cost=1)
        graph.add_actor("c", cost=3)
        graph.add_edge("a", "b", production=2, consumption=3)
        graph.add_edge("b", "c", production=1, consumption=2, initial_tokens=1)
        return graph

    def test_schedule_identical(self):
        sequence, bounds = reference.simulate_schedule(self._chain())
        compiled = static_schedule(self._chain())
        assert compiled.sequence == sequence
        assert compiled.buffer_bounds == bounds
        assert compiled.repetition == {"a": 3, "b": 2, "c": 1}
        assert compiled.cost == 3 * 2 + 2 * 1 + 1 * 3

    def test_deadlock_identical(self):
        graph = SDFGraph("loop")
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")  # no initial tokens: deadlock
        for schedule in (reference.simulate_schedule, static_schedule):
            with pytest.raises(DeadlockError):
                schedule(graph)

    def test_converted_gallery_net_identical(self, fig2):
        from repro.sdf import petri_to_sdf

        graph = petri_to_sdf(fig2)
        sequence, bounds = reference.simulate_schedule(graph)
        compiled = static_schedule(graph)
        assert compiled.sequence == sequence
        assert compiled.buffer_bounds == bounds
