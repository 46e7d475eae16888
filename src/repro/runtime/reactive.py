"""Net-level reactive execution used by the baseline implementations.

The QSS implementation is measured by executing its *generated code*
(:mod:`repro.codegen.interpreter`).  The baselines — functional task
partitioning and fully dynamic scheduling — are measured by executing
the specification directly at the Petri-net level with the same cost
model, plus the task/queue overheads their structure implies:

* every time the locus of execution crosses from one task (module) to
  another, a message is exchanged (queue send + receive) and the target
  task is activated (RTOS overhead);
* data-dependent choices are resolved by the per-event resolutions
  supplied by the workload, exactly as for the generated code.

The simulator processes one input event at a time: it fires the event's
source transition and then keeps firing data-enabled transitions until
the net quiesces, which mirrors a run-to-completion reactive execution.

The event loop runs on the integer-indexed
:class:`~repro.petrinet.compiled.CompiledNet` view (dense transition
ids, list-of-int token vectors, generated enabledness checkers).  The
original string-keyed token game is the test oracle
:class:`repro.reference.ReactiveSimulator`;
`tests/test_runtime_compiled_differential.py` pins identical
:class:`~repro.runtime.rtos.ExecutionStats` between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..petrinet import Marking, PetriNet
from ..petrinet.compiled import CompiledNet, compile_net
from ..petrinet.exceptions import NotEnabledError
from .cost import CostModel
from .events import Event
from .rtos import ExecutionStats
from .stochastic import TimingModel

#: What to do when an event's run-to-completion processing exceeds
#: ``max_firings_per_event``: ``"error"`` raises (the historical
#: behaviour — a quasi-statically schedulable specification quiesces, so
#: hitting the bound indicates a broken model), ``"stop"`` abandons the
#: event after the bound and counts it in ``ExecutionStats.budget_stops``
#: (used by the corpus runtime sweep, where arbitrary generated nets may
#: legitimately never quiesce).
BUDGET_POLICIES = ("error", "stop")

#: The error raised under ``on_budget="error"`` — shared verbatim by the
#: simulator, the fleet kernel and the reference oracle so the
#: differential suite can pin identical behaviour.
QUIESCENCE_MESSAGE = (
    "event processing did not quiesce; the specification is "
    "probably not schedulable"
)


def validate_budget_policy(on_budget: str) -> str:
    """Validate an ``on_budget=`` argument, returning it unchanged."""
    if on_budget not in BUDGET_POLICIES:
        raise ValueError(
            f"unknown budget policy {on_budget!r}; expected one of "
            f"{', '.join(BUDGET_POLICIES)}"
        )
    return on_budget


@dataclass
class ModuleAssignment:
    """Assignment of every transition to a module (task) name."""

    modules: Mapping[str, str]

    def module_of(self, transition: str) -> str:
        return self.modules[transition]

    @classmethod
    def single_task(
        cls, net: Union[PetriNet, CompiledNet], name: str = "main"
    ) -> "ModuleAssignment":
        names = net.transitions if isinstance(net, CompiledNet) else net.transition_names
        return cls(modules={t: name for t in names})

    @classmethod
    def one_task_per_transition(
        cls, net: Union[PetriNet, CompiledNet]
    ) -> "ModuleAssignment":
        names = net.transitions if isinstance(net, CompiledNet) else net.transition_names
        return cls(modules={t: f"task_{t}" for t in names})

    @classmethod
    def from_groups(cls, groups: Mapping[str, Sequence[str]]) -> "ModuleAssignment":
        mapping: Dict[str, str] = {}
        for module, transitions in groups.items():
            for transition in transitions:
                mapping[transition] = module
        return cls(modules=mapping)

    @property
    def module_names(self) -> List[str]:
        return sorted(set(self.modules.values()))


class ReactiveNetSimulator:
    """Executes the net event-by-event with task/queue accounting.

    Parameters
    ----------
    net:
        The specification, as a :class:`PetriNet` or a pre-compiled
        :class:`~repro.petrinet.compiled.CompiledNet` (pass the compiled
        view when constructing many simulators of the same net).
    assignment:
        Which task each transition belongs to; crossing tasks costs queue
        traffic plus an activation of the target task.
    cost_model:
        The shared cycle cost model.
    max_firings_per_event:
        Safety bound against runaway event processing (an unschedulable
        specification could otherwise loop forever).
    on_budget:
        ``"error"`` (default) raises :class:`RuntimeError` when an event
        exceeds ``max_firings_per_event``; ``"stop"`` abandons the event
        and counts it in ``ExecutionStats.budget_stops``.
    timing:
        Optional :class:`~repro.runtime.stochastic.TimingModel` charging
        an integer tick delay per firing into
        ``ExecutionStats.delay_ticks``.
    """

    def __init__(
        self,
        net: Union[PetriNet, CompiledNet],
        assignment: ModuleAssignment,
        cost_model: Optional[CostModel] = None,
        max_firings_per_event: int = 100_000,
        on_budget: str = "error",
        timing: Optional[TimingModel] = None,
    ) -> None:
        self.on_budget = validate_budget_policy(on_budget)
        self.assignment = assignment
        self.cost = cost_model or CostModel()
        self.max_firings_per_event = max_firings_per_event
        self.timing = timing
        if isinstance(net, CompiledNet):
            self.net = net.decompile()
            self._cnet = net
        else:
            self.net = net
            self._cnet = compile_net(net)
        self._prepare_tables()
        self._vector: List[int] = list(self._cnet.initial)

    # -- compiled tables -----------------------------------------------------
    def _prepare_tables(self) -> None:
        cnet = self._cnet
        choice_ids = {cnet.place_id(p) for p in self.net.choice_places()}
        # per transition id: the choice-place ids in its preset (the ones
        # an event resolution can deselect it through)
        self._choice_preset: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(p for p, _w in cnet.pre_lists[t] if p in choice_ids)
            for t in range(len(cnet.transitions))
        )
        self._choice_place_ids = choice_ids
        # per transition id: the cycles one firing charges (body plus the
        # dispatch test every transition pays)
        transition_cycles = self.cost.transition_cycles
        test_cycles = self.cost.test_cycles
        self._fire_cycles: Tuple[int, ...] = tuple(
            cost * transition_cycles + test_cycles for cost in cnet.costs
        )
        self._has_preset: Tuple[bool, ...] = tuple(
            bool(pairs) for pairs in cnet.pre_lists
        )
        # per transition id: the tick delay one firing charges (all zero
        # when untimed, so the charge below is branch-free)
        timing = self.timing
        self._tick_table: Tuple[int, ...] = tuple(
            timing.ticks_of(name) if timing else 0 for name in cnet.transitions
        )

    # -- state ---------------------------------------------------------------
    @property
    def marking(self) -> Marking:
        """The current marking, decompiled to a named :class:`Marking`."""
        return self._cnet.marking_from_tuple(self._vector)

    def reset(self) -> None:
        self._vector = list(self._cnet.initial)

    # -- event processing ----------------------------------------------------
    def process_event(self, event: Event, stats: ExecutionStats) -> None:
        """Fire the event's source and run the net to quiescence."""
        cnet = self._cnet
        stats.events_processed += 1
        source = event.source
        current_task = self.assignment.module_of(source)
        stats.record_activation(current_task, self.cost.activation_cycles)
        self._fire(cnet.transition_id(source), stats, check=True)
        firings = 1
        resolved = self._resolve_choices(event.choices)
        while True:
            t_id = self._first_candidate(resolved)
            if t_id is None:
                break
            task = self.assignment.module_of(cnet.transitions[t_id])
            if task != current_task:
                stats.record_queue(2 * self.cost.queue_op_cycles)
                stats.record_activation(task, self.cost.activation_cycles)
                current_task = task
            self._fire(t_id, stats, check=False)
            firings += 1
            if firings > self.max_firings_per_event:
                if self.on_budget == "error":
                    raise RuntimeError(QUIESCENCE_MESSAGE)
                stats.budget_stops += 1
                break

    def _resolve_choices(
        self, choices: Mapping[str, str]
    ) -> Optional[Dict[int, int]]:
        """Translate an event's ``{place: transition}`` resolutions to ids.

        A resolution naming an unknown transition maps to ``-1`` (no
        transition id matches, so every successor of the place is
        deselected).  Places the net does not have, or that are not
        choice places, are ignored.
        """
        if not choices:
            return None
        cnet = self._cnet
        resolved: Dict[int, int] = {}
        for place, chosen in choices.items():
            p_id = cnet.place_index.get(place)
            if p_id is not None and p_id in self._choice_place_ids:
                resolved[p_id] = cnet.transition_index.get(chosen, -1)
        return resolved or None

    def _first_candidate(self, resolved: Optional[Dict[int, int]]) -> Optional[int]:
        """First data-enabled non-source transition id, in insertion order."""
        has_preset = self._has_preset
        choice_preset = self._choice_preset
        for t_id in self._cnet.enabled_transitions(self._vector):
            if not has_preset[t_id]:
                continue
            if resolved:
                selected = True
                for p_id in choice_preset[t_id]:
                    chosen = resolved.get(p_id)
                    if chosen is not None and chosen != t_id:
                        selected = False
                        break
                if not selected:
                    continue
            return t_id
        return None

    def _fire(
        self, t_id: int, stats: ExecutionStats, check: bool
    ) -> None:
        cnet = self._cnet
        vector = self._vector
        if check and not cnet.is_enabled(t_id, vector):
            raise NotEnabledError(
                f"transition {cnet.transitions[t_id]!r} is not enabled "
                f"in marking {cnet.marking_from_tuple(vector)}"
            )
        for p_id, delta in cnet.delta_lists[t_id]:
            vector[p_id] += delta
        stats.record_body(self._fire_cycles[t_id], (cnet.transitions[t_id],))
        if self.timing is not None:
            stats.record_delay(self._tick_table[t_id])

    def run(self, events: Sequence[Event]) -> ExecutionStats:
        stats = ExecutionStats()
        for event in sorted(events, key=lambda e: e.time):
            self.process_event(event, stats)
        return stats
