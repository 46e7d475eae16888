"""The string-keyed reactive simulator and its per-instance fleet loop."""

from __future__ import annotations

import time
from typing import List, Mapping, Optional, Sequence, Union

import numpy as np

from ..petrinet import PetriNet
from ..petrinet.compiled import CompiledNet
from ..runtime.cost import CostModel
from ..runtime.events import Event
from ..runtime.fleet import FleetResult
from ..runtime.reactive import QUIESCENCE_MESSAGE, ModuleAssignment
from ..runtime.reactive import validate_budget_policy
from ..runtime.rtos import ExecutionStats
from ..runtime.stochastic import TimingModel


class ReactiveSimulator:
    """Fires each event's source, then the first data-enabled transition in
    insertion order until the net quiesces, on named markings."""

    def __init__(
        self,
        net: Union[PetriNet, CompiledNet],
        assignment: ModuleAssignment,
        cost_model: Optional[CostModel] = None,
        max_firings_per_event: int = 100_000,
        on_budget: str = "error",
        timing: Optional[TimingModel] = None,
    ) -> None:
        self.net = net.decompile() if isinstance(net, CompiledNet) else net
        self.assignment = assignment
        self.cost = cost_model or CostModel()
        self.max_firings_per_event = max_firings_per_event
        self.on_budget = validate_budget_policy(on_budget)
        self.timing = timing
        self._choice_places = set(self.net.choice_places())
        self.marking = self.net.initial_marking

    def reset(self) -> None:
        self.marking = self.net.initial_marking

    def run(self, events: Sequence[Event]) -> ExecutionStats:
        stats = ExecutionStats()
        for event in sorted(events, key=lambda e: e.time):
            self.process_event(event, stats)
        return stats

    def _data_enabled(self, choices: Mapping[str, str]) -> List[str]:
        """Transitions enabled by both tokens and the event's data.

        A successor of a choice place is only data-enabled when the
        event's resolution selects it; all other transitions follow plain
        token-game enabling.
        """
        enabled = []
        for transition in self.net.enabled_transitions(self.marking):
            selected = True
            for place in self.net.preset_names(transition):
                if place in self._choice_places:
                    chosen = choices.get(place)
                    if chosen is not None and chosen != transition:
                        selected = False
                        break
            if selected:
                enabled.append(transition)
        return enabled

    def process_event(self, event: Event, stats: ExecutionStats) -> None:
        stats.events_processed += 1
        source = event.source
        current_task = self.assignment.module_of(source)
        stats.record_activation(current_task, self.cost.activation_cycles)
        self._fire(source, stats)
        firings = 1
        while True:
            candidates = self._data_enabled(event.choices)
            # never re-fire source transitions spontaneously: they are
            # driven by the environment, one firing per event.
            candidates = [c for c in candidates if self.net.preset(c)]
            if not candidates:
                break
            transition = candidates[0]
            task = self.assignment.module_of(transition)
            if task != current_task:
                # inter-task message: send + receive + activation of target
                stats.record_queue(2 * self.cost.queue_op_cycles)
                stats.record_activation(task, self.cost.activation_cycles)
                current_task = task
            self._fire(transition, stats)
            firings += 1
            if firings > self.max_firings_per_event:
                if self.on_budget == "error":
                    raise RuntimeError(QUIESCENCE_MESSAGE)
                stats.budget_stops += 1
                break

    def _fire(self, transition: str, stats: ExecutionStats) -> None:
        self.marking = self.net.fire(transition, self.marking)
        cost = self.net.transition(transition).cost * self.cost.transition_cycles
        # every transition pays a dispatch test, mirroring the generated
        # code's control tests
        cost += self.cost.test_cycles
        stats.record_body(cost, [transition])
        if self.timing is not None:
            stats.record_delay(self.timing.ticks_of(transition))


def run_fleet(
    net: Union[PetriNet, CompiledNet],
    assignment: ModuleAssignment,
    streams: Sequence[Sequence[Event]],
    timing: Optional[TimingModel] = None,
    **options,
) -> FleetResult:
    """Serve each stream on one :class:`ReactiveSimulator`, instance by
    instance; ``options`` are its ``cost_model`` /
    ``max_firings_per_event`` / ``on_budget``."""
    started = time.perf_counter()
    aggregate = ExecutionStats()
    cycles = np.zeros(len(streams), dtype=np.int64)
    ticks = np.zeros(len(streams), dtype=np.int64)
    events = np.zeros(len(streams), dtype=np.int64)
    simulator = ReactiveSimulator(net, assignment, timing=timing, **options)
    for i, stream in enumerate(streams):
        simulator.reset()
        stats = simulator.run(stream)
        cycles[i] = stats.total_cycles
        ticks[i] = stats.delay_ticks
        events[i] = stats.events_processed
        aggregate.merge(stats)
    return FleetResult(
        stats=aggregate,
        instance_cycles=cycles,
        instance_events=events,
        engine="reference",
        elapsed_seconds=time.perf_counter() - started,
        instance_ticks=ticks if timing is not None else None,
    )
