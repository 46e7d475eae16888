"""Synchronous Dataflow substrate: graphs, balance equations and static schedules.

The PASS simulation behind :func:`static_schedule` /
:func:`simulate_schedule` / :func:`is_statically_schedulable` runs on
integer-indexed actors/channels with vectorized can-fire tests; the
original string-keyed dict loop is the test oracle in
:mod:`repro.reference` (`tests/test_runtime_compiled_differential.py`
cross-checks them).  The balance equations (:mod:`repro.sdf.balance`)
already run on integer matrices.
"""

from .balance import (
    InconsistentSDFError,
    is_sample_rate_consistent,
    iteration_token_change,
    repetition_vector,
)
from .convert import petri_to_sdf, sdf_to_petri
from .graph import Actor, Edge, SDFError, SDFGraph
from .schedule import (
    DeadlockError,
    LoopedSchedule,
    StaticSchedule,
    compact_schedule,
    is_statically_schedulable,
    simulate_schedule,
    static_schedule,
    total_buffer_requirement,
)

__all__ = [
    "SDFGraph",
    "Actor",
    "Edge",
    "SDFError",
    "InconsistentSDFError",
    "DeadlockError",
    "repetition_vector",
    "is_sample_rate_consistent",
    "iteration_token_change",
    "static_schedule",
    "simulate_schedule",
    "is_statically_schedulable",
    "StaticSchedule",
    "LoopedSchedule",
    "compact_schedule",
    "total_buffer_requirement",
    "sdf_to_petri",
    "petri_to_sdf",
]
