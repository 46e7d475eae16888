"""Static scheduling of SDF graphs (PASS construction).

Lee's result used in Section 2 of the paper: once the repetition vector
``q`` exists, it suffices to *simulate* the firing of each actor ``q[a]``
times; if the simulation never blocks, the resulting sequence is a
Periodic Admissible Sequential Schedule (PASS) — a finite complete cycle
in Petri net terms.  If the simulation blocks, no schedule exists for the
given delays (deadlock due to insufficient initial tokens).

The simulation maps actors and channels to dense integer ids once and
fires against int64 token vectors with vectorized can-fire tests; the
original string-keyed dict loop is kept as the test oracle
:func:`repro.reference.simulate_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .balance import repetition_vector
from .graph import SDFError, SDFGraph


class DeadlockError(SDFError):
    """The graph is sample-rate consistent but deadlocks (not enough delays)."""


@dataclass
class StaticSchedule:
    """A fully static (compile-time) schedule of an SDF graph.

    Attributes
    ----------
    sequence:
        Actor firing order for one iteration (one finite complete cycle).
    repetition:
        The repetition vector the sequence realizes.
    buffer_bounds:
        Maximum tokens observed on each channel during the iteration —
        the static buffer sizes a software implementation must allocate.
    cost:
        Total abstract execution cost of one iteration (sum of actor
        costs weighted by the repetition counts).
    """

    sequence: List[str]
    repetition: Dict[str, int]
    buffer_bounds: Dict[str, int]
    cost: int

    def iterations(self, count: int) -> List[str]:
        """The firing sequence for ``count`` back-to-back iterations."""
        return list(self.sequence) * count


def simulate_schedule(
    graph: SDFGraph, repetition: Optional[Dict[str, int]] = None
) -> Tuple[List[str], Dict[str, int]]:
    """Simulate one iteration and return ``(sequence, buffer_bounds)``.

    Each step fires the first actor (in declaration order) with firings
    left and enough input tokens — demand-driven order keeps buffer
    bounds small.  One step is a vectorized can-fire test over dense
    actor/channel ids; ``argmax`` of its mask picks the actor.

    Raises
    ------
    DeadlockError
        If no actor can fire before all repetition counts are exhausted.
    """
    if repetition is None:
        repetition = repetition_vector(graph)
    actors = list(graph.actor_names)
    actor_index = {a: i for i, a in enumerate(actors)}
    edges = list(graph.edges)
    channels = [e.channel_name for e in edges]
    n_a, n_c = len(actors), len(edges)

    consumption = np.zeros((n_a, n_c), dtype=np.int64)
    production = np.zeros((n_a, n_c), dtype=np.int64)
    for j, edge in enumerate(edges):
        consumption[actor_index[edge.target], j] += edge.consumption
        production[actor_index[edge.source], j] += edge.production
    incidence = production - consumption

    tokens = np.array([e.initial_tokens for e in edges], dtype=np.int64)
    bounds = tokens.copy()
    remaining = np.array([repetition.get(a, 0) for a in actors], dtype=np.int64)
    sequence: List[str] = []

    for _ in range(int(remaining.sum())):
        fireable = (remaining > 0) & np.all(tokens >= consumption, axis=1)
        if not fireable.any():
            blocked = [a for a, left in zip(actors, remaining) if left > 0]
            raise DeadlockError(
                f"SDF graph {graph.name!r} deadlocks with actors still to "
                f"fire: {blocked}"
            )
        actor = int(fireable.argmax())
        tokens += incidence[actor]
        np.maximum(bounds, tokens, out=bounds)
        remaining[actor] -= 1
        sequence.append(actors[actor])
    return sequence, {channels[j]: int(bounds[j]) for j in range(n_c)}


def static_schedule(graph: SDFGraph) -> StaticSchedule:
    """Compute a PASS for ``graph``.

    Raises :class:`~repro.sdf.balance.InconsistentSDFError` when the
    balance equations have no solution and :class:`DeadlockError` when
    the graph is consistent but has insufficient initial tokens.
    """
    repetition = repetition_vector(graph)
    sequence, bounds = simulate_schedule(graph, repetition)
    cost = sum(graph.actor(a).cost * n for a, n in repetition.items())
    return StaticSchedule(
        sequence=sequence, repetition=repetition, buffer_bounds=bounds, cost=cost
    )


def is_statically_schedulable(graph: SDFGraph) -> bool:
    """True if the graph admits a PASS (consistent and deadlock-free)."""
    try:
        static_schedule(graph)
    except SDFError:
        return False
    return True


# ----------------------------------------------------------------------
# Looped (single appearance style) schedule compaction
# ----------------------------------------------------------------------
@dataclass
class LoopedSchedule:
    """A run-length compressed schedule, e.g. ``(4 t1)(2 t2)(1 t3)``.

    Looped schedules are what code generators emit as ``for`` loops; the
    flat sequence is recovered with :meth:`flatten`.
    """

    entries: List[Tuple[int, str]] = field(default_factory=list)

    def flatten(self) -> List[str]:
        result: List[str] = []
        for count, actor in self.entries:
            result.extend([actor] * count)
        return result

    def __str__(self) -> str:
        return "".join(f"({count} {actor})" for count, actor in self.entries)


def compact_schedule(sequence: Sequence[str]) -> LoopedSchedule:
    """Run-length encode a firing sequence into a looped schedule."""
    entries: List[Tuple[int, str]] = []
    for actor in sequence:
        if entries and entries[-1][1] == actor:
            entries[-1] = (entries[-1][0] + 1, actor)
        else:
            entries.append((1, actor))
    return LoopedSchedule(entries=entries)


def total_buffer_requirement(schedule: StaticSchedule) -> int:
    """Sum of the per-channel buffer bounds (the memory cost of the schedule)."""
    return sum(schedule.buffer_bounds.values())
