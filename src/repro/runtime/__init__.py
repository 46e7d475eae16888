"""Runtime substrate: cost model, event streams, RTOS, reactive and fleet execution.

Each execution path in this package has one production executor:
:class:`ReactiveNetSimulator` runs the event loop on the
integer-indexed :class:`~repro.petrinet.compiled.CompiledNet` view,
:class:`RTOS` runs the IR interpreter's lowered opcodes (or, with
``engine="native"``, the synthesized C), and :class:`FleetSimulator`
batches N net instances into one ``(N, P)`` numpy marking matrix.  The
slower implementations they replaced are the test oracles of
:mod:`repro.reference`; `tests/test_runtime_compiled_differential.py`
is the cross-check suite and `benchmarks/bench_runtime_fleet.py` the
fleet performance contract.
"""

from .cost import DEFAULT_COST_MODEL, CostModel
from .events import (
    ARRIVAL_PROCESSES,
    ChoiceSampler,
    Event,
    arrival_events,
    bursty_events,
    diurnal_events,
    irregular_events,
    merge_streams,
    periodic_events,
    validate_arrival,
    with_choices,
)
from .fleet import (
    FleetEngine,
    FleetResult,
    FleetSimulator,
    SignatureTable,
    synthetic_streams,
)
from .reactive import (
    BUDGET_POLICIES,
    ModuleAssignment,
    ReactiveNetSimulator,
    validate_budget_policy,
)
from .rtos import RTOS, ExecutionStats
from .stochastic import (
    TIMING_SPECS,
    StochasticChoicePolicy,
    TimingModel,
    parse_timing,
)

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Event",
    "periodic_events",
    "irregular_events",
    "bursty_events",
    "diurnal_events",
    "arrival_events",
    "ARRIVAL_PROCESSES",
    "validate_arrival",
    "merge_streams",
    "with_choices",
    "ChoiceSampler",
    "RTOS",
    "ExecutionStats",
    "ModuleAssignment",
    "ReactiveNetSimulator",
    "BUDGET_POLICIES",
    "validate_budget_policy",
    "FleetSimulator",
    "FleetEngine",
    "FleetResult",
    "SignatureTable",
    "synthetic_streams",
    "TimingModel",
    "StochasticChoicePolicy",
    "TIMING_SPECS",
    "parse_timing",
]
