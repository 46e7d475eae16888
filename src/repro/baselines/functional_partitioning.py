"""Functional task partitioning — the comparison implementation of Table I.

The paper compares its QSS implementation (two tasks, one per
independent-rate input) against an implementation "obtained by
synthesizing separately one task for each of the five modules shown in
figure 8".  That is what this module builds: one software task per
functional module, with the modules communicating through RTOS message
queues.  Processing a single cell therefore crosses several tasks (MSD →
BUFFER → WFQ_SCHEDULING, ...), and every crossing pays a queue
send/receive plus an activation of the target task — the overhead that
makes this implementation both larger and slower than the QSS one.

Code size is measured by generating the per-module task code with the
same code generator used for QSS (plus per-task/per-queue boilerplate);
execution is measured with the net-level reactive simulator and the same
cycle cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..codegen.emit_c import EmitOptions, emit_c
from ..codegen.generator import CodegenOptions, generate_task_program
from ..codegen.ir import Program
from ..petrinet import PetriNet
from ..qss.tasks import TaskDefinition
from ..runtime.cost import CostModel
from ..runtime.events import Event
from ..runtime.reactive import ModuleAssignment, ReactiveNetSimulator
from ..runtime.rtos import ExecutionStats

#: Extra generated lines charged per task (RTOS registration, task control
#: block, entry/exit glue) and per inter-task queue (declaration, init,
#: send/receive wrappers).  These are the scaffolding costs that a
#: partitioning with more tasks pays in real code bases.
TASK_BOILERPLATE_LINES = 40
QUEUE_BOILERPLATE_LINES = 18


@dataclass
class FunctionalImplementation:
    """A one-task-per-module software implementation.

    Attributes
    ----------
    net:
        The specification.
    modules:
        ``{module name: [transitions]}`` — the functional partition.
    program:
        Generated per-module task code.
    queues:
        Inter-module channels ``(producer module, consumer module, place)``.
    """

    net: PetriNet
    modules: Dict[str, List[str]]
    program: Program
    queues: List[Tuple[str, str, str]]

    @property
    def task_count(self) -> int:
        return len(self.modules)

    def lines_of_code(self) -> int:
        """Generated C lines plus per-task and per-queue boilerplate."""
        emission = emit_c(
            self.program,
            EmitOptions(boilerplate_lines_per_task=TASK_BOILERPLATE_LINES),
        )
        return emission.lines_of_code + QUEUE_BOILERPLATE_LINES * len(self.queues)

    def run(
        self,
        events: Sequence[Event],
        cost_model: Optional[CostModel] = None,
    ) -> ExecutionStats:
        """Execute the testbench on the multi-task implementation."""
        assignment = ModuleAssignment.from_groups(self.modules)
        return ReactiveNetSimulator(self.net, assignment, cost_model).run(events)


def _module_entry_transitions(
    net: PetriNet, module: str, transitions: Sequence[str], owner: Mapping[str, str]
) -> List[str]:
    """Transitions of a module triggered from outside it.

    These are the module task's activation points: real environment
    sources plus transitions consuming from a place fed by another module
    (an incoming message queue).
    """
    entries: List[str] = []
    for transition in transitions:
        preset = net.preset_names(transition)
        if not preset:
            entries.append(transition)
            continue
        producers: Set[str] = set()
        for place in preset:
            producers.update(net.preset_names(place))
        if any(owner.get(p) != module for p in producers) or not producers:
            entries.append(transition)
    return entries


def inter_module_queues(
    net: PetriNet, modules: Mapping[str, Sequence[str]]
) -> List[Tuple[str, str, str]]:
    """The message queues implied by the partition: one per place whose
    producer and consumer lie in different modules."""
    owner: Dict[str, str] = {}
    for module, transitions in modules.items():
        for transition in transitions:
            owner[transition] = module
    queues: List[Tuple[str, str, str]] = []
    for place in net.place_names:
        producers = {owner[t] for t in net.preset_names(place) if t in owner}
        consumers = {owner[t] for t in net.postset_names(place) if t in owner}
        for producer in sorted(producers):
            for consumer in sorted(consumers):
                if producer != consumer:
                    queues.append((producer, consumer, place))
    return queues


def build_functional_implementation(
    net: PetriNet,
    modules: Mapping[str, Sequence[str]],
    options: Optional[CodegenOptions] = None,
) -> FunctionalImplementation:
    """Synthesize the one-task-per-module implementation of ``net``."""
    owner: Dict[str, str] = {}
    for module, transitions in modules.items():
        for transition in transitions:
            owner[transition] = module
    missing = [t for t in net.transition_names if t not in owner]
    if missing:
        raise ValueError(
            f"module partition does not cover transitions: {missing}"
        )

    program = Program(name=f"{net.name}_functional")
    for module, transitions in modules.items():
        entries = _module_entry_transitions(net, module, transitions, owner)
        places: Set[str] = set()
        for transition in transitions:
            places.update(net.preset_names(transition))
            places.update(net.postset_names(transition))
        task = TaskDefinition(
            name=f"task_{module}",
            source_transitions=tuple(entries),
            transitions=frozenset(transitions),
            places=frozenset(places),
            net=net.subnet(places, transitions, name=f"task_{module}"),
        )
        program.tasks.append(
            generate_task_program(net, task, options or CodegenOptions())
        )

    queues = inter_module_queues(net, modules)
    return FunctionalImplementation(
        net=net,
        modules={m: list(ts) for m, ts in modules.items()},
        program=program,
        queues=queues,
    )
