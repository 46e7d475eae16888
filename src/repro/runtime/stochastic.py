"""Timed firing delays and weighted stochastic choice for the runtime.

The paper's target systems are *timed*: firing a transition models a
computation that takes real time, and the data-dependent choices of the
specification resolve with application-specific (not uniform) odds.
This module adds both dimensions to the reactive/fleet runtime while
keeping every execution path bit-reproducible:

* :class:`TimingModel` charges an **integer tick** delay per transition
  firing.  Ticks are integers on purpose — the fleet kernel accumulates
  them either per firing (direct loop) or as one ``fired @ ticks``
  matmul per memoized cascade, and integer arithmetic makes the two
  orders byte-identical, which the differential suites pin.  Use
  :meth:`TimingModel.sampled` for a seeded random assignment or
  :meth:`TimingModel.constant` for a uniform one.

* :class:`StochasticChoicePolicy` carries **weighted** branch odds per
  choice place.  Resolution stays at the stream boundary (events carry
  their resolutions, exactly as before), so the executors — memoized,
  direct, sharded and the reference oracle — never see randomness: they
  receive the same resolved events and must produce the same bytes.

Both are seeded through :class:`random.Random` with *string* seeds over
*sorted* names, so results are identical across processes regardless of
``PYTHONHASHSEED`` (`tests/test_stochastic_determinism.py` pins this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..petrinet import PetriNet
from ..petrinet.compiled import CompiledNet
from .events import ChoiceSampler, Event, with_choices

#: Timing specs accepted by :func:`parse_timing` (and the ``--timing``
#: flag of ``repro-qss serve``): ``none``, ``fixed:N``,
#: ``uniform:LOW-HIGH``.
TIMING_SPECS = ("none", "fixed:N", "uniform:LOW-HIGH")


def _named(net: Union[PetriNet, CompiledNet]) -> PetriNet:
    return net.decompile() if isinstance(net, CompiledNet) else net


def _transition_names(net: Union[PetriNet, CompiledNet]) -> List[str]:
    if isinstance(net, CompiledNet):
        return list(net.transitions)
    return list(net.transition_names)


@dataclass(frozen=True)
class TimingModel:
    """Integer tick delay charged per transition firing.

    Attributes
    ----------
    transition_ticks:
        ``{transition name: ticks per firing}``; transitions absent from
        the mapping charge :attr:`default_ticks`.
    default_ticks:
        Delay of unlisted transitions (0 keeps them free).
    """

    transition_ticks: Mapping[str, int] = field(default_factory=dict)
    default_ticks: int = 0

    def __post_init__(self) -> None:
        for name, ticks in self.transition_ticks.items():
            if int(ticks) != ticks or ticks < 0:
                raise ValueError(
                    f"tick delay of transition {name!r} must be a "
                    f"non-negative integer, got {ticks!r}"
                )
        if int(self.default_ticks) != self.default_ticks or self.default_ticks < 0:
            raise ValueError(
                f"default_ticks must be a non-negative integer, got "
                f"{self.default_ticks!r}"
            )

    def ticks_of(self, transition: str) -> int:
        return int(self.transition_ticks.get(transition, self.default_ticks))

    def tick_vector(self, cnet: CompiledNet) -> np.ndarray:
        """Per-transition-id tick column for the fleet kernel."""
        return np.array(
            [self.ticks_of(name) for name in cnet.transitions], dtype=np.int64
        )

    @classmethod
    def constant(cls, ticks: int) -> "TimingModel":
        """Every firing takes ``ticks``."""
        return cls(transition_ticks={}, default_ticks=ticks)

    @classmethod
    def sampled(
        cls,
        net: Union[PetriNet, CompiledNet],
        seed: int = 0,
        low: int = 1,
        high: int = 8,
    ) -> "TimingModel":
        """Seeded random integer delay in ``[low, high]`` per transition.

        The draw iterates transitions in *sorted name order* with a
        string-seeded :class:`random.Random`, so the model is identical
        across processes and ``PYTHONHASHSEED`` values.
        """
        if low < 0 or high < low:
            raise ValueError(
                f"need 0 <= low <= high, got low={low!r} high={high!r}"
            )
        rng = random.Random(f"timing:{seed}")
        ticks = {
            name: rng.randint(low, high)
            for name in sorted(_transition_names(net))
        }
        return cls(transition_ticks=ticks, default_ticks=0)


def parse_timing(
    spec: str, net: Union[PetriNet, CompiledNet], seed: int = 0
) -> Optional[TimingModel]:
    """Parse a ``--timing`` spec string into a :class:`TimingModel`.

    ``"none"`` means untimed (returns ``None``), ``"fixed:N"`` charges
    ``N`` ticks per firing, ``"uniform:LOW-HIGH"`` draws a seeded random
    delay in ``[LOW, HIGH]`` per transition.
    """
    if spec == "none":
        return None
    kind, _, rest = spec.partition(":")
    if kind == "fixed" and rest:
        try:
            return TimingModel.constant(int(rest))
        except ValueError:
            pass
    elif kind == "uniform" and rest:
        low_s, sep, high_s = rest.partition("-")
        if sep:
            try:
                return TimingModel.sampled(
                    net, seed=seed, low=int(low_s), high=int(high_s)
                )
            except ValueError:
                pass
    raise ValueError(
        f"bad timing spec {spec!r}; expected one of {', '.join(TIMING_SPECS)} "
        f"(e.g. 'fixed:3' or 'uniform:1-8')"
    )


@dataclass(frozen=True)
class StochasticChoicePolicy:
    """Weighted branch odds per choice place.

    Attributes
    ----------
    weights:
        ``{choice place: {successor transition: weight}}``; weights are
        relative (the samplers normalize), must be positive.
    """

    weights: Mapping[str, Mapping[str, float]]

    def __post_init__(self) -> None:
        for place, branches in self.weights.items():
            if not branches:
                raise ValueError(f"choice place {place!r} has no branches")
            for transition, weight in branches.items():
                if not weight > 0:
                    raise ValueError(
                        f"weight of {place!r} -> {transition!r} must be "
                        f"positive, got {weight!r}"
                    )

    @property
    def probabilities(self) -> Dict[str, Dict[str, float]]:
        """The weights normalized to sum to 1 per choice place."""
        normalized: Dict[str, Dict[str, float]] = {}
        for place, branches in self.weights.items():
            total = sum(branches.values())
            normalized[place] = {
                transition: weight / total
                for transition, weight in branches.items()
            }
        return normalized

    def resolver(
        self,
        seed: int = 0,
        per_source: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> ChoiceSampler:
        """A seeded :class:`ChoiceSampler` drawing from these weights."""
        return ChoiceSampler(self.probabilities, seed=seed, per_source=per_source)

    def resolve(self, events: Sequence[Event], seed: int = 0) -> List[Event]:
        """Copy of ``events`` with choices drawn from these weights."""
        return with_choices(events, self.resolver(seed))

    @classmethod
    def uniform(cls, net: Union[PetriNet, CompiledNet]) -> "StochasticChoicePolicy":
        """Equal odds on every branch (the historical synthetic default)."""
        named = _named(net)
        return cls(
            weights={
                place: {t: 1.0 for t in named.postset_names(place)}
                for place in named.choice_places()
            }
        )

    @classmethod
    def sampled(
        cls,
        net: Union[PetriNet, CompiledNet],
        seed: int = 0,
        low: float = 0.25,
        high: float = 4.0,
    ) -> "StochasticChoicePolicy":
        """Seeded random weight in ``[low, high]`` per branch.

        Iterates choice places and their successors in *sorted name
        order* with a string-seeded :class:`random.Random` — identical
        across processes and ``PYTHONHASHSEED`` values.
        """
        if not 0 < low <= high:
            raise ValueError(
                f"need 0 < low <= high, got low={low!r} high={high!r}"
            )
        named = _named(net)
        rng = random.Random(f"choice:{seed}")
        weights: Dict[str, Dict[str, float]] = {}
        for place in sorted(named.choice_places()):
            weights[place] = {
                t: rng.uniform(low, high)
                for t in sorted(named.postset_names(place))
            }
        return cls(weights=weights)
