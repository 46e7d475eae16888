"""Fully dynamic scheduling baseline.

The paper's conclusions contrast quasi-static scheduling with dynamic
scheduling: "Quasi-Static Scheduling, if compared to dynamic scheduling,
minimizes the execution runtime overhead since it maximizes the amount
of work done at compile time."  This baseline models the opposite
extreme: every transition of the specification is its own schedulable
unit (a micro-task), so every firing pays the RTOS dispatch overhead and
every token transfer between transitions is an inter-task message.

It is used by the ablation benchmark (E12 in DESIGN.md) to show that the
QSS advantage over functional partitioning widens further against fully
dynamic execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..petrinet import PetriNet
from ..runtime.cost import CostModel
from ..runtime.events import Event
from ..runtime.reactive import ModuleAssignment, ReactiveNetSimulator
from ..runtime.rtos import ExecutionStats

#: Lines of scheduler/task scaffolding charged per micro-task when
#: estimating code size for the dynamic implementation.
MICROTASK_BOILERPLATE_LINES = 8


@dataclass
class DynamicImplementation:
    """A fully dynamic (one micro-task per transition) implementation."""

    net: PetriNet

    @property
    def task_count(self) -> int:
        return len(self.net.transition_names)

    def lines_of_code(self) -> int:
        """Rough code-size estimate: one call line per transition body plus
        scheduler boilerplate per micro-task."""
        return self.task_count * (1 + MICROTASK_BOILERPLATE_LINES)

    def run(
        self,
        events: Sequence[Event],
        cost_model: Optional[CostModel] = None,
    ) -> ExecutionStats:
        """Execute the testbench on the micro-task implementation."""
        assignment = ModuleAssignment.one_task_per_transition(self.net)
        return ReactiveNetSimulator(self.net, assignment, cost_model).run(events)


def build_dynamic_implementation(net: PetriNet) -> DynamicImplementation:
    """Build the fully dynamic baseline for ``net``."""
    return DynamicImplementation(net=net)
