"""The dict-based SDF PASS loop: string-keyed tokens, one can-fire scan per
step over the actors in declaration order."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sdf.balance import repetition_vector
from ..sdf.graph import SDFGraph
from ..sdf.schedule import DeadlockError


def simulate_schedule(
    graph: SDFGraph, repetition: Optional[Dict[str, int]] = None
) -> Tuple[List[str], Dict[str, int]]:
    """Simulate one iteration and return ``(sequence, buffer_bounds)``."""
    if repetition is None:
        repetition = repetition_vector(graph)
    remaining = dict(repetition)
    tokens: Dict[str, int] = {e.channel_name: e.initial_tokens for e in graph.edges}
    bounds: Dict[str, int] = dict(tokens)
    sequence: List[str] = []

    def can_fire(actor: str) -> bool:
        if remaining.get(actor, 0) <= 0:
            return False
        for edge in graph.in_edges(actor):
            if tokens[edge.channel_name] < edge.consumption:
                return False
        return True

    def fire(actor: str) -> None:
        for edge in graph.in_edges(actor):
            tokens[edge.channel_name] -= edge.consumption
        for edge in graph.out_edges(actor):
            tokens[edge.channel_name] += edge.production
            bounds[edge.channel_name] = max(
                bounds[edge.channel_name], tokens[edge.channel_name]
            )
        remaining[actor] -= 1
        sequence.append(actor)

    total = sum(remaining.values())
    for _ in range(total):
        fired = False
        for actor in graph.actor_names:
            if can_fire(actor):
                fire(actor)
                fired = True
                break
        if not fired:
            blocked = [a for a, r in remaining.items() if r > 0]
            raise DeadlockError(
                f"SDF graph {graph.name!r} deadlocks with actors still to "
                f"fire: {blocked}"
            )
    return sequence, bounds
