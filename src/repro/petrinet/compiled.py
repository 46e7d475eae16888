"""Compiled (integer-indexed) view of a Petri net.

Every hot path of the reproduction — reachability exploration, the QSS
constrained simulation of each T-reduction and the schedule interpreter
— used to run on :class:`~repro.petrinet.net.PetriNet`'s string-keyed
dicts and immutable dict-backed :class:`~repro.petrinet.marking.Marking`
values, so enabledness checks and firing were dominated by string
hashing and dict churn.  :class:`CompiledNet` is the frozen, dense
representation those paths run on instead:

* places and transitions are mapped to dense integer ids (insertion
  order of the source net, so results are reproducible across engines);
* presets/postsets are stored twice: as flat CSR-style numpy arrays
  (``pre_indptr``/``pre_ids``/``pre_weights``) for vectorized analyses,
  and as plain Python tuples of ``(place_id, weight)`` pairs for the
  scalar token-game loops where numpy call overhead would dominate;
* ``pre``/``post``/``incidence`` are dense numpy matrices (rows are
  transitions, columns are places — the convention of
  :mod:`repro.petrinet.incidence`);
* markings are plain integer tuples aligned with ``places`` — hashable,
  O(1) index lookup, and an order of magnitude cheaper to copy and hash
  than dict-backed :class:`Marking` values.

The compiled view is a pure accelerator: it carries the full name
tables, so every id-level result decompiles back to named places and
transitions (:meth:`CompiledNet.decompile`, :meth:`marking_from_tuple`)
and the string-based public API of the library is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .exceptions import NotEnabledError, UnknownNodeError
from .marking import Marking
from .net import PetriNet, Place, Transition

#: The engine of every token-game executor (the runtime simulators, the
#: fleet, the SDF PASS loop): the integer-indexed :class:`CompiledNet`
#: core.  Their dict-based predecessors are the test oracles of
#: :mod:`repro.reference`.
ENGINE_COMPILED = "compiled"
ENGINES = (ENGINE_COMPILED,)

#: The state-space searches (reachability, coverability, the QSS cycle
#: search) also keep the ``"legacy"`` dict-based path, for
#: cross-checking and the compiled-vs-legacy benchmarks, and offer
#: ``"frontier"``: whole BFS frontiers as ``(N, P)`` numpy matrices
#: instead of one marking at a time (see :mod:`repro.petrinet.frontier`).
ENGINE_LEGACY = "legacy"
ENGINE_FRONTIER = "frontier"
SEARCH_ENGINES = (ENGINE_COMPILED, ENGINE_LEGACY, ENGINE_FRONTIER)

#: The execution tier (the IR interpreter, the RTOS executive and the
#: metrics built on them) also offers ``"native"``: the
#: synthesized C is compiled to a shared library and run natively; see
#: :mod:`repro.codegen.native`.  Falls back to ``"compiled"`` with a
#: warning when the machine has no C compiler.
ENGINE_NATIVE = "native"
EXEC_ENGINES = (ENGINE_COMPILED, ENGINE_NATIVE)

#: A marking in compiled form: token counts indexed by place id.
MarkingTuple = Tuple[int, ...]

#: Sentinel token count representing "unbounded" (omega) in coverability
#: vectors.  Kept negative so a plain ``>=`` comparison against an arc
#: weight is never accidentally true for an omega component; every omega
#: comparison must therefore go through the ``== OMEGA`` masks used by
#: :meth:`CompiledNet.omega_enabled_mask` / :meth:`CompiledNet.omega_fire`.
OMEGA = -1


def validate_engine(engine: str, engines: Tuple[str, ...] = ENGINES) -> str:
    """Validate an ``engine=`` argument, returning it unchanged.

    ``engines`` is the tuple of engines the calling analysis supports:
    :data:`ENGINES` (the default), :data:`SEARCH_ENGINES` for the
    state-space searches or :data:`EXEC_ENGINES` for the execution
    tier.
    """
    if engine not in engines:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(engines)}"
        )
    return engine


@dataclass(frozen=True, eq=False)
class CompiledNet:
    """A frozen, integer-indexed compilation of a :class:`PetriNet`.

    Attributes
    ----------
    name:
        Name of the source net (with a ``#compiled`` marker appended by
        :meth:`from_net` so reports can tell the views apart).
    places / transitions:
        Name tables: ``places[i]`` is the name of place id ``i``; both
        follow the insertion order of the source net.
    place_index / transition_index:
        Inverse maps ``{name: id}``.
    pre / post / incidence:
        Dense ``(T, P)`` int64 matrices; ``pre[t, p]`` is the weight of
        the arc ``p -> t``, ``post[t, p]`` of ``t -> p`` and
        ``incidence = post - pre`` (same convention as
        :class:`~repro.petrinet.incidence.IncidenceMatrices`).
    pre_indptr / pre_ids / pre_weights:
        CSR encoding of the transition presets: the input places of
        transition ``t`` are ``pre_ids[pre_indptr[t]:pre_indptr[t+1]]``
        with matching ``pre_weights``.  ``post_*`` encodes the postsets.
    initial:
        The initial marking as a :data:`MarkingTuple`.
    costs:
        Per-transition execution cost (for the runtime cost model).
    """

    name: str
    places: Tuple[str, ...]
    transitions: Tuple[str, ...]
    place_index: Mapping[str, int]
    transition_index: Mapping[str, int]
    pre: np.ndarray
    post: np.ndarray
    incidence: np.ndarray
    pre_indptr: np.ndarray
    pre_ids: np.ndarray
    pre_weights: np.ndarray
    post_indptr: np.ndarray
    post_ids: np.ndarray
    post_weights: np.ndarray
    initial: MarkingTuple
    costs: Tuple[int, ...]
    # scalar fast-path tables: per-transition tuples of (place_id, weight)
    # pairs, and the combined per-transition token delta applied by fire()
    pre_lists: Tuple[Tuple[Tuple[int, int], ...], ...]
    post_lists: Tuple[Tuple[Tuple[int, int], ...], ...]
    delta_lists: Tuple[Tuple[Tuple[int, int], ...], ...]
    # original node records, kept so decompile() restores metadata
    place_records: Tuple[Place, ...]
    transition_records: Tuple[Transition, ...]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_net(cls, net: PetriNet) -> "CompiledNet":
        """Compile ``net`` into its integer-indexed form."""
        place_records = tuple(net.places)
        transition_records = tuple(net.transitions)
        places = tuple(p.name for p in place_records)
        transitions = tuple(t.name for t in transition_records)
        place_index = {p: i for i, p in enumerate(places)}
        transition_index = {t: i for i, t in enumerate(transitions)}
        n_t, n_p = len(transitions), len(places)

        pre = np.zeros((n_t, n_p), dtype=np.int64)
        post = np.zeros((n_t, n_p), dtype=np.int64)
        for arc in net.arcs:
            if arc.source in place_index:
                pre[transition_index[arc.target], place_index[arc.source]] = arc.weight
            else:
                post[transition_index[arc.source], place_index[arc.target]] = arc.weight

        pre_lists: List[Tuple[Tuple[int, int], ...]] = []
        post_lists: List[Tuple[Tuple[int, int], ...]] = []
        delta_lists: List[Tuple[Tuple[int, int], ...]] = []
        for t_id, t_name in enumerate(transitions):
            ins = tuple(
                (place_index[p], w) for p, w in net.preset(t_name).items()
            )
            outs = tuple(
                (place_index[p], w) for p, w in net.postset(t_name).items()
            )
            delta: Dict[int, int] = {}
            for p_id, w in ins:
                delta[p_id] = delta.get(p_id, 0) - w
            for p_id, w in outs:
                delta[p_id] = delta.get(p_id, 0) + w
            pre_lists.append(ins)
            post_lists.append(outs)
            delta_lists.append(tuple((p, d) for p, d in delta.items() if d))

        def csr(lists: Sequence[Tuple[Tuple[int, int], ...]]):
            indptr = np.zeros(n_t + 1, dtype=np.int64)
            ids: List[int] = []
            weights: List[int] = []
            for t_id, pairs in enumerate(lists):
                for p_id, w in pairs:
                    ids.append(p_id)
                    weights.append(w)
                indptr[t_id + 1] = len(ids)
            return (
                indptr,
                np.array(ids, dtype=np.int64),
                np.array(weights, dtype=np.int64),
            )

        pre_indptr, pre_ids, pre_weights = csr(pre_lists)
        post_indptr, post_ids, post_weights = csr(post_lists)

        initial_marking = net.initial_marking
        initial = tuple(initial_marking[p] for p in places)
        return cls(
            name=net.name,
            places=places,
            transitions=transitions,
            place_index=place_index,
            transition_index=transition_index,
            pre=pre,
            post=post,
            incidence=post - pre,
            pre_indptr=pre_indptr,
            pre_ids=pre_ids,
            pre_weights=pre_weights,
            post_indptr=post_indptr,
            post_ids=post_ids,
            post_weights=post_weights,
            initial=initial,
            costs=tuple(t.cost for t in transition_records),
            pre_lists=tuple(pre_lists),
            post_lists=tuple(post_lists),
            delta_lists=tuple(delta_lists),
            place_records=place_records,
            transition_records=transition_records,
        )

    def decompile(self, name: Optional[str] = None) -> PetriNet:
        """Rebuild an equivalent :class:`PetriNet` for diagnostics.

        The result has the same nodes (with metadata), arcs and initial
        marking as the net this view was compiled from.
        """
        net = PetriNet(name=name or self.name)
        for record, tokens in zip(self.place_records, self.initial):
            net.add_place(
                record.name,
                tokens=tokens,
                capacity=record.capacity,
                label=record.label,
            )
        for record in self.transition_records:
            net.add_transition(
                record.name,
                label=record.label,
                cost=record.cost,
                is_source_hint=record.is_source_hint,
                is_sink_hint=record.is_sink_hint,
            )
        for t_id, t_name in enumerate(self.transitions):
            for p_id, weight in self.pre_lists[t_id]:
                net.add_arc(self.places[p_id], t_name, weight)
            for p_id, weight in self.post_lists[t_id]:
                net.add_arc(t_name, self.places[p_id], weight)
        return net

    # ------------------------------------------------------------------
    # Marking conversions
    # ------------------------------------------------------------------
    @property
    def initial_marking(self) -> Marking:
        """The initial marking decompiled to a :class:`Marking`."""
        return self.marking_from_tuple(self.initial)

    def marking_to_tuple(self, marking: Mapping[str, int]) -> MarkingTuple:
        """Convert a name-keyed marking to its compiled tuple form.

        Raises :class:`UnknownNodeError` if the marking puts tokens on a
        place this net does not have — silently dropping them would make
        the compiled engine diverge from the legacy one.
        """
        index = self.place_index
        for place, count in marking.items():
            if count and place not in index:
                raise UnknownNodeError(
                    f"marking has tokens on unknown place {place!r}"
                )
        get = marking.get
        return tuple(get(p, 0) for p in self.places)

    def marking_from_tuple(self, vector: Sequence[int]) -> Marking:
        """Decompile a token vector back to a named :class:`Marking`."""
        # compiled markings are non-negative by construction, so the
        # validating Marking constructor can be bypassed
        return Marking._from_clean(
            {p: int(c) for p, c in zip(self.places, vector) if c}
        )

    def marking_to_array(self, marking: Mapping[str, int]) -> np.ndarray:
        """Convert a name-keyed marking to a numpy token vector."""
        return np.array(self.marking_to_tuple(marking), dtype=np.int64)

    def tokens(self, marking: Sequence[int], place: Union[str, int]) -> int:
        """O(1) token lookup in a compiled marking, by place name or id."""
        if isinstance(place, str):
            place = self.place_index[place]
        return int(marking[place])

    # ------------------------------------------------------------------
    # Id/name translation
    # ------------------------------------------------------------------
    def transition_id(self, transition: str) -> int:
        try:
            return self.transition_index[transition]
        except KeyError:
            raise UnknownNodeError(f"unknown transition {transition!r}") from None

    def place_id(self, place: str) -> int:
        try:
            return self.place_index[place]
        except KeyError:
            raise UnknownNodeError(f"unknown place {place!r}") from None

    def transition_names(self, ids: Iterable[int]) -> List[str]:
        names = self.transitions
        return [names[i] for i in ids]

    def source_transition_ids(self) -> List[int]:
        """Ids of transitions with an empty preset."""
        return [t for t in range(len(self.transitions)) if not self.pre_lists[t]]

    def sink_transition_ids(self) -> List[int]:
        """Ids of transitions with an empty postset."""
        return [t for t in range(len(self.transitions)) if not self.post_lists[t]]

    # ------------------------------------------------------------------
    # Token-game semantics over compiled markings
    # ------------------------------------------------------------------
    def is_enabled(self, transition: int, marking: Sequence[int]) -> bool:
        """True if transition id ``transition`` is enabled in ``marking``."""
        for p_id, weight in self.pre_lists[transition]:
            if marking[p_id] < weight:
                return False
        return True

    @cached_property
    def _enabled_checker(self) -> Callable[[Sequence[int]], List[int]]:
        """Generated straight-line function listing enabled transition ids."""
        lines = ["def enabled(m):", "    out = []", "    a = out.append"]
        for t_id in range(len(self.transitions)):
            checks = " and ".join(
                f"m[{p}] >= {w}" for p, w in self.pre_lists[t_id]
            )
            if checks:
                lines.append(f"    if {checks}: a({t_id})")
            else:
                lines.append(f"    a({t_id})")
        lines.append("    return out")
        namespace: Dict[str, object] = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - generated from ints only
        return namespace["enabled"]  # type: ignore[return-value]

    def enabled_transitions(self, marking: Sequence[int]) -> List[int]:
        """Ids of all enabled transitions, in id (= insertion) order."""
        return self._enabled_checker(marking)

    def enabled_mask(self, markings: Union[Sequence[int], np.ndarray]) -> np.ndarray:
        """Vectorized enabledness over one marking or a batch of markings.

        ``markings`` is a token vector of shape ``(P,)`` or a batch of
        shape ``(N, P)``; the result is a boolean array of shape ``(T,)``
        or ``(N, T)`` with ``True`` where the transition is enabled.

        Callers that already hold an int64 array (the fleet simulator,
        the frontier exploration engine) hit a zero-copy fast path; any
        other input pays exactly one :func:`numpy.asarray` conversion.
        Inputs of more than two dimensions are rejected rather than
        silently broadcast wrong.
        """
        if isinstance(markings, np.ndarray) and markings.dtype == np.int64:
            m = markings
        else:
            m = np.asarray(markings, dtype=np.int64)
        if m.ndim == 1:
            return np.all(m[np.newaxis, :] >= self.pre, axis=1)
        if m.ndim == 2:
            return np.all(m[:, np.newaxis, :] >= self.pre[np.newaxis, :, :], axis=2)
        raise ValueError(
            f"markings must be a (P,) vector or an (N, P) batch, got a "
            f"{m.ndim}-D array"
        )

    def fire(self, transition: int, marking: MarkingTuple) -> MarkingTuple:
        """Fire transition id ``transition``, returning the new marking.

        Raises :class:`NotEnabledError` (with the transition *name*, so
        diagnostics match the legacy engine) when not enabled.
        """
        if not self.is_enabled(transition, marking):
            raise NotEnabledError(
                f"transition {self.transitions[transition]!r} is not enabled "
                f"in marking {self.marking_from_tuple(marking)}"
            )
        return self.fire_unchecked(transition, marking)

    def fire_unchecked(self, transition: int, marking: MarkingTuple) -> MarkingTuple:
        """Fire without the enabledness check (caller guarantees it)."""
        result = list(marking)
        for p_id, delta in self.delta_lists[transition]:
            result[p_id] += delta
        return tuple(result)

    def fire_by_name(self, transition: str, marking: MarkingTuple) -> MarkingTuple:
        return self.fire(self.transition_id(transition), marking)

    @cached_property
    def expander(self) -> Callable[[MarkingTuple], List[Tuple[int, MarkingTuple]]]:
        """A net-specialized successor function, generated and ``exec``-compiled.

        ``expander(marking)`` returns ``[(transition_id, successor), ...]``
        for every enabled transition, in id order — one straight-line
        Python function with the preset checks unrolled into literal
        comparisons and each successor assembled from tuple slices, so
        the per-transition interpretation overhead of the table-driven
        loop disappears.  This is the hottest primitive of reachability
        exploration and free simulation.
        """
        lines = ["def expand(m):", "    out = []", "    a = out.append"]
        for t_id in range(len(self.transitions)):
            checks = " and ".join(
                f"m[{p}] >= {w}" for p, w in self.pre_lists[t_id]
            )
            deltas = sorted(self.delta_lists[t_id])
            # successor tuple from slices of m around the changed indices
            parts: List[str] = []
            cursor = 0
            i = 0
            while i < len(deltas):
                # merge runs of consecutive changed indices into one segment
                j = i
                while j + 1 < len(deltas) and deltas[j + 1][0] == deltas[j][0] + 1:
                    j += 1
                first = deltas[i][0]
                if first > cursor:
                    parts.append(f"m[{cursor}:{first}]")
                segment = ", ".join(
                    f"m[{p}] {'+' if d >= 0 else '-'} {abs(d)}"
                    for p, d in deltas[i : j + 1]
                )
                parts.append(f"({segment},)")
                cursor = deltas[j][0] + 1
                i = j + 1
            if cursor < len(self.places):
                parts.append(f"m[{cursor}:]")
            successor = " + ".join(parts) if parts else "m"
            body = f"a(({t_id}, {successor}))"
            if checks:
                lines.append(f"    if {checks}: {body}")
            else:
                lines.append(f"    {body}")
        lines.append("    return out")
        namespace: Dict[str, object] = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - generated from ints only
        return namespace["expand"]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Omega (coverability) semantics over numpy token vectors
    # ------------------------------------------------------------------
    def omega_enabled_mask(self, vector: np.ndarray) -> np.ndarray:
        """Vectorized enabledness of every transition in an omega-vector.

        ``vector`` is an int64 array of shape ``(P,)`` whose components
        are token counts or :data:`OMEGA`; an omega component satisfies
        every preset weight.  Returns a boolean array of shape ``(T,)``.
        """
        return np.all((vector >= self.pre) | (vector == OMEGA), axis=1)

    def omega_fire(self, transition: int, vector: np.ndarray) -> np.ndarray:
        """Fire transition id ``transition`` under omega semantics.

        Omega components absorb any finite delta (omega - w = omega + w =
        omega); finite components follow the ordinary incidence row.  The
        caller guarantees enabledness (see :meth:`omega_enabled_mask`).
        """
        return np.where(vector == OMEGA, OMEGA, vector + self.incidence[transition])

    def marking_after_counts(
        self, marking: Sequence[int], counts: Mapping[str, int]
    ) -> np.ndarray:
        """State equation: ``marking + f^T . incidence`` as a numpy vector."""
        f = np.zeros(len(self.transitions), dtype=np.int64)
        for transition, count in counts.items():
            f[self.transition_id(transition)] = count
        return np.asarray(marking, dtype=np.int64) + f @ self.incidence

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.places) + len(self.transitions)

    def __repr__(self) -> str:
        return (
            f"CompiledNet(name={self.name!r}, places={len(self.places)}, "
            f"transitions={len(self.transitions)}, "
            f"arcs={int(self.pre_indptr[-1] + self.post_indptr[-1])})"
        )


def compile_net(net: Union[PetriNet, CompiledNet]) -> CompiledNet:
    """Return the compiled view of ``net`` (no-op on compiled input)."""
    if isinstance(net, CompiledNet):
        return net
    return CompiledNet.from_net(net)
