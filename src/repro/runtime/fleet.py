"""Batched multi-instance execution: serving fleets of net instances.

One reactive simulation answers "what does *one* deployed system do
under this event stream?".  The production question is different: a
server farm runs *thousands* of independent instances of the same
specification, each against its own event stream.  Stepping them one by
one through :class:`~repro.runtime.reactive.ReactiveNetSimulator` pays
the full Python event loop per instance; this module steps all of them
*together* on the compiled engine, split into two layers:

* :class:`FleetEngine` is the pure stepping **kernel**: it owns the
  ``(N, P)`` int64 marking matrix (one row per instance, one column per
  compiled place id), the batched enabledness/dispatch machinery and
  the per-instance accounting arrays.  Its one serving entry point is
  :meth:`FleetEngine.dispatch_ordered`: an ordered batch of packed
  ``(row, source id, signature id)`` events, grouped into occurrence
  rounds (round *k* carries the *k*-th event of every instance in the
  batch) with one vectorized dispatch per round.  The one-shot run
  below and both shard backends of :mod:`repro.service` call it.
  Instances can be added, exported and imported at runtime (the
  supervisor's work-stealing rebalancer migrates live instances
  between shards).

* :class:`FleetSimulator` is the stream **orchestration**: ``run``
  sorts each per-instance stream by time, interns every event once
  through :meth:`SignatureTable.intern_events` and serves the packed
  columns with one ``dispatch_ordered`` call.  ``run(streams,
  workers=N)`` serves the same packed batch through a drained
  process-backed :class:`~repro.service.FleetSupervisor`.  The
  per-instance string-keyed loop it replaced is the test oracle
  :func:`repro.reference.run_fleet`.

The kernel accelerates the event loop with **memoized cascades**: the
run-to-quiescence processing of an event is fully deterministic given
the instance's current marking, the event's source transition and its
choice-resolution signature (the first enabled candidate in transition
id order fires, exactly as the reactive simulator's insertion-order
scan).  Marking states and signatures are interned to small integer
ids, and each distinct ``(state, source, signature)`` key is simulated
once — its firing counts, cycle charges, activations, queue crossings
and end state become a *cascade* row.  Serving an event is then one
table gather plus vectorized delta application, which is what lets a
single core sustain hundreds of thousands of events per second
(``benchmarks/bench_serve.py`` holds the contract).  Nets whose state
or cascade population keeps growing flush the tables and eventually
fall back to the direct batched loop, so memory stays bounded and the
results stay *identical*: memoized, direct and reference execution are
pinned equal by `tests/test_runtime_compiled_differential.py` and
`tests/test_service_differential.py`.
"""

from __future__ import annotations

import asyncio
import operator
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..petrinet import PetriNet
from ..petrinet.compiled import ENGINE_COMPILED, CompiledNet, compile_net
from ..petrinet.exceptions import NotEnabledError
from .cost import CostModel
from .events import (
    ChoiceSampler,
    Event,
    arrival_events,
    merge_streams,
    validate_arrival,
    with_choices,
)
from .reactive import QUIESCENCE_MESSAGE, ModuleAssignment, validate_budget_policy
from .rtos import ExecutionStats
from .stochastic import StochasticChoicePolicy, TimingModel


@dataclass
class FleetResult:
    """Outcome of one fleet run.

    Attributes
    ----------
    stats:
        Aggregate :class:`ExecutionStats` over every instance (cycles,
        activations per task, firings per transition, events, budget
        stops).
    instance_cycles / instance_events:
        Per-instance totals, index-aligned with the input streams.
    engine:
        The engine that produced the result.
    elapsed_seconds:
        Wall-clock of the run (the denominator of :attr:`throughput_eps`).
    instance_ticks:
        Per-instance timed-delay totals when the run used a
        :class:`~repro.runtime.stochastic.TimingModel`, ``None`` for
        untimed runs.
    """

    stats: ExecutionStats
    instance_cycles: np.ndarray
    instance_events: np.ndarray
    engine: str
    elapsed_seconds: float = 0.0
    instance_ticks: Optional[np.ndarray] = None

    @property
    def instances(self) -> int:
        return int(len(self.instance_cycles))

    @property
    def throughput_eps(self) -> float:
        """Events served per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.stats.events_processed / self.elapsed_seconds

    def percentile(self, q: float) -> float:
        """Percentile of the per-instance total-cycle distribution."""
        if len(self.instance_cycles) == 0:
            return 0.0
        return float(np.percentile(self.instance_cycles, q))

    def percentiles(
        self, qs: Sequence[float] = (50, 90, 95, 99)
    ) -> Dict[str, float]:
        """The standard latency-style summary of the cycle distribution."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def describe(self) -> str:
        lines = [
            f"fleet of {self.instances} instance(s) ({self.engine} engine)",
            self.stats.describe(),
            "per-instance cycles: "
            + ", ".join(
                f"{name}={value:.0f}" for name, value in self.percentiles().items()
            ),
        ]
        if self.instance_ticks is not None and len(self.instance_ticks):
            lines.append(
                "per-instance delay ticks: "
                + ", ".join(
                    f"p{q:g}={float(np.percentile(self.instance_ticks, q)):.0f}"
                    for q in (50, 90, 95, 99)
                )
            )
        if self.elapsed_seconds > 0:
            lines.append(
                f"throughput: {self.throughput_eps:.0f} events/s "
                f"({self.elapsed_seconds:.3f}s wall)"
            )
        return "\n".join(lines)


#: Flush the cascade memo when the interned state or cascade population
#: exceeds this; after :data:`MEMO_MAX_FLUSHES` flushes the kernel falls
#: back to the direct batched loop for good (results are identical, the
#: net is just not memoization-friendly).
MEMO_STATE_LIMIT = 65_536
MEMO_MAX_FLUSHES = 2


class SignatureTable:
    """Interned choice-resolution signatures over one compiled net.

    Signatures depend only on the net, so one table can back any number
    of :class:`FleetEngine` instances of the same ``CompiledNet`` — the
    sharded service interns each event *once* at the ingest boundary
    and every shard kernel consumes the resulting integer ids directly.

    Two-level scheme: the **raw** index caches insertion-order
    ``choices.items()`` tuples so the steady-state lookup skips the
    per-event sort; the **canonical** index keys sorted tuples so
    equivalent resolutions share one id.  Ids are assigned densely in
    canonical-creation order, which makes the table replicable: feeding
    :meth:`definitions` to another table's :meth:`intern` in order
    yields the same ids (how the process-backed shards stay in sync
    with their supervisor across pipes).
    """

    def __init__(self, cnet: CompiledNet) -> None:
        self.cnet = cnet
        n_t = len(cnet.transitions)
        # successor transition ids per choice place id, for the per-event
        # "allowed" masks
        successors: Dict[int, List[int]] = {}
        for t_id, pairs in enumerate(cnet.pre_lists):
            for p_id, _w in pairs:
                successors.setdefault(p_id, []).append(t_id)
        self._choice_successors: Dict[int, np.ndarray] = {
            p_id: np.array(t_ids, dtype=np.int64)
            for p_id, t_ids in successors.items()
            if len(t_ids) > 1
        }
        # signature id 0 is the empty resolution (allowed = everything)
        self._index: Dict[Tuple[Tuple[str, str], ...], int] = {(): 0}
        self._raw_index: Dict[Tuple[Tuple[str, str], ...], int] = {(): 0}
        self._signatures: List[Tuple[Tuple[str, str], ...]] = [()]
        self.allowed = np.ones((4, n_t), dtype=bool)
        self.count = 1

    def intern_raw(self, raw: Tuple[Tuple[str, str], ...]) -> int:
        """Intern an insertion-order ``choices.items()`` tuple."""
        sig_id = self._raw_index.get(raw)
        if sig_id is None:
            sig_id = self.intern(tuple(sorted(raw)))
            self._raw_index[raw] = sig_id
        return sig_id

    def intern_events(self, events: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """Intern events into (source id, signature id) int64 columns.

        The package's one per-event interning loop: anything with
        ``source`` and ``choices`` attributes (an
        :class:`~repro.runtime.events.Event` or a service ``InjectEvent``)
        costs one raw-cache hit in the steady state, because the
        insertion-order ``choices.items()`` tuple doubles as the lookup
        key and repeated resolutions skip the sort.  An unknown source
        transition raises :class:`NotEnabledError`.
        """
        src_list: List[int] = []
        sig_list: List[int] = []
        add_src = src_list.append
        add_sig = sig_list.append
        lookup_src = self.cnet.transition_index.get
        lookup_sig = self._raw_index.get
        intern_raw = self.intern_raw
        for event in events:
            t_id = lookup_src(event.source)
            if t_id is None:
                raise NotEnabledError(
                    f"unknown source transition {event.source!r}"
                )
            add_src(t_id)
            choices = event.choices
            if choices:
                raw = tuple(choices.items())
                sig_id = lookup_sig(raw)
                if sig_id is None:
                    sig_id = intern_raw(raw)
                add_sig(sig_id)
            else:
                add_sig(0)
        return (
            np.array(src_list, dtype=np.int64),
            np.array(sig_list, dtype=np.int64),
        )

    def intern(self, signature: Tuple[Tuple[str, str], ...]) -> int:
        """Intern one canonical (sorted) signature, returning its id.

        The allowed row deselects every transition whose preset contains
        a choice place that resolved to a *different* successor — the
        same filter :class:`ReactiveNetSimulator` applies per transition.
        """
        sig_id = self._index.get(signature)
        if sig_id is not None:
            return sig_id
        transition_index = self.cnet.transition_index
        place_index = self.cnet.place_index
        allowed = np.ones(len(self.cnet.transitions), dtype=bool)
        for place, chosen in signature:
            p_id = place_index.get(place)
            if p_id is None:
                continue
            candidates = self._choice_successors.get(p_id)
            if candidates is None:
                continue
            chosen_id = transition_index.get(chosen, -1)
            allowed[candidates[candidates != chosen_id]] = False
        sig_id = self.count
        if sig_id >= len(self.allowed):
            grown = np.ones(
                (2 * len(self.allowed), len(self.cnet.transitions)), dtype=bool
            )
            grown[: len(self.allowed)] = self.allowed
            self.allowed = grown
        self.allowed[sig_id] = allowed
        self._index[signature] = sig_id
        self._signatures.append(signature)
        self.count += 1
        return sig_id

    def definitions(
        self, start: int = 0, end: Optional[int] = None
    ) -> List[Tuple[Tuple[str, str], ...]]:
        """Canonical signatures ``start..end`` in id order (replication)."""
        return self._signatures[start : self.count if end is None else end]


class FleetEngine:
    """The pure fleet stepping kernel: N instances of one compiled net.

    The engine owns *state* (the marking matrix, per-instance cycle and
    event counters, aggregate accounting) and *mechanism* (batched
    dispatch with memoized cascades); it knows nothing about streams,
    sockets or actors.  Drive it with :meth:`dispatch_ordered` — an
    ordered packed batch, rows may repeat — and read the outcome with
    :meth:`result` or :meth:`aggregate_stats` at any point.

    Parameters
    ----------
    net:
        The specification (:class:`PetriNet` or pre-compiled
        :class:`CompiledNet`).
    assignment:
        Task of every transition (must cover *all* transitions — the
        kernel precomputes the module table up front).
    cost_model / max_firings_per_event / on_budget:
        As for :class:`~repro.runtime.reactive.ReactiveNetSimulator`.
    instances:
        Initial fleet size; :meth:`add_instances` grows it at runtime.
    memo:
        ``True`` (default) enables the cascade memo; ``False`` forces
        the direct batched loop (the cross-check path).
    signatures:
        Optional shared :class:`SignatureTable`.  The sharded service
        passes one table to every shard engine so events interned once
        at the ingest boundary are directly dispatchable on any shard;
        by default each engine owns a private table.
    timing:
        Optional :class:`~repro.runtime.stochastic.TimingModel`.  Timed
        runs track an extra per-instance integer tick total; the memo
        path replays it as one ``fired @ ticks`` product per cascade and
        the direct path accumulates it per firing — integer arithmetic
        keeps the two byte-identical.
    """

    def __init__(
        self,
        net: Union[PetriNet, CompiledNet],
        assignment: ModuleAssignment,
        cost_model: Optional[CostModel] = None,
        max_firings_per_event: int = 100_000,
        on_budget: str = "error",
        instances: int = 0,
        memo: bool = True,
        timing: Optional[TimingModel] = None,
        signatures: Optional[SignatureTable] = None,
    ) -> None:
        self.on_budget = validate_budget_policy(on_budget)
        self.assignment = assignment
        self.cost = cost_model or CostModel()
        self.max_firings_per_event = max_firings_per_event
        self.timing = timing
        self.cnet: CompiledNet = (
            net if isinstance(net, CompiledNet) else compile_net(net)
        )
        if signatures is not None and signatures.cnet is not self.cnet:
            raise ValueError(
                "shared SignatureTable must be built over the engine's "
                "own CompiledNet"
            )
        self.signatures = signatures or SignatureTable(self.cnet)
        self._memo_enabled = memo
        self._prepare_tables()
        self._init_memo_tables()
        self.reset(instances)

    # ------------------------------------------------------------------
    # Static tables (per net + assignment + cost model)
    # ------------------------------------------------------------------
    def _prepare_tables(self) -> None:
        cnet = self.cnet
        n_t = len(cnet.transitions)
        # module table: id per transition, names indexed by module id
        module_names: List[str] = []
        module_index: Dict[str, int] = {}
        module_of = np.empty(n_t, dtype=np.int64)
        for t_id, name in enumerate(cnet.transitions):
            module = self.assignment.module_of(name)
            if module not in module_index:
                module_index[module] = len(module_names)
                module_names.append(module)
            module_of[t_id] = module_index[module]
        self._module_names = module_names
        self._module_of = module_of
        transition_cycles = self.cost.transition_cycles
        test_cycles = self.cost.test_cycles
        self._fire_cycles = np.array(
            [cost * transition_cycles + test_cycles for cost in cnet.costs],
            dtype=np.int64,
        )
        self._nonsource = np.array(
            [bool(pairs) for pairs in cnet.pre_lists], dtype=bool
        )
        # timed runs: integer tick delay per transition id (the all-zero
        # vector keeps the untimed hot path branch-light)
        self._timed = self.timing is not None
        self._tick_vector = (
            self.timing.tick_vector(cnet)
            if self.timing is not None
            else np.zeros(n_t, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Memo tables: marking states and cascades (signatures live in the
    # possibly-shared SignatureTable and survive memo flushes)
    # ------------------------------------------------------------------
    def _init_memo_tables(self) -> None:
        self._memo_flushes = 0
        self._clear_cascades()

    def _clear_cascades(self) -> None:
        n_t = len(self.cnet.transitions)
        n_m = len(self._module_names)
        n_p = len(self.cnet.places)
        self._state_index: Dict[bytes, int] = {}
        self._state_mark = np.empty((8, n_p), dtype=np.int64)
        self._state_count = 0
        self._cascade_index: Dict[Tuple[int, int, int], int] = {}
        cap = 8
        self._c_count = 0
        self._c_end = np.empty(cap, dtype=np.int64)
        self._c_cycles = np.empty(cap, dtype=np.int64)
        self._c_ticks = np.empty(cap, dtype=np.int64)
        self._c_body = np.empty(cap, dtype=np.int64)
        self._c_queue = np.empty(cap, dtype=np.int64)
        self._c_act_total = np.empty(cap, dtype=np.int64)
        self._c_stopped = np.empty(cap, dtype=bool)
        self._c_bad = np.empty(cap, dtype=bool)  # source not enabled
        self._c_fired = np.empty((cap, n_t), dtype=np.int64)
        self._c_act = np.empty((cap, n_m), dtype=np.int64)

    def _intern_state(self, marking: np.ndarray) -> int:
        key = marking.tobytes()
        state_id = self._state_index.get(key)
        if state_id is None:
            state_id = self._state_count
            if state_id >= len(self._state_mark):
                grown = np.empty(
                    (2 * len(self._state_mark), self._state_mark.shape[1]),
                    dtype=np.int64,
                )
                grown[: len(self._state_mark)] = self._state_mark
                self._state_mark = grown
            self._state_mark[state_id] = marking
            self._state_index[key] = state_id
            self._state_count += 1
        return state_id

    # ------------------------------------------------------------------
    # Per-run state
    # ------------------------------------------------------------------
    def reset(self, instances: int = 0) -> None:
        """Reinitialize the fleet to ``instances`` fresh instances.

        Interned signatures, states and cascades are *kept* — they
        depend only on the net, assignment, cost model and budget, so a
        warm kernel serves repeated runs without re-simulating.
        """
        n_p = len(self.cnet.places)
        capacity = max(instances, 8)
        self._n = instances
        self._initial = np.array(self.cnet.initial, dtype=np.int64)
        self._markings = np.empty((capacity, n_p), dtype=np.int64)
        self._markings[:instances] = self._initial
        self._cycles = np.zeros(capacity, dtype=np.int64)
        self._ticks = np.zeros(capacity, dtype=np.int64)
        self._events = np.zeros(capacity, dtype=np.int64)
        self._fire_counts = np.zeros(len(self.cnet.transitions), dtype=np.int64)
        self._activation_counts = np.zeros(len(self._module_names), dtype=np.int64)
        self._activation_total = 0
        self._body_total = 0
        self._queue_total = 0
        self._budget_stops = 0
        self._memo_active = self._memo_enabled
        self._state_of_row = np.zeros(capacity, dtype=np.int64)
        if self._memo_active:
            self._state_of_row[:instances] = self._intern_state(self._initial)

    def reset_state(self, reset_stats: bool = True) -> None:
        """Reset every instance to the initial marking (service reload).

        With ``reset_stats`` (default) the accounting starts over as
        well; otherwise cycle/event counters keep accumulating across
        the reload.
        """
        self._markings[: self._n] = self._initial
        if self._memo_active:
            self._state_of_row[: self._n] = self._intern_state(self._initial)
        if reset_stats:
            self._cycles[: self._n] = 0
            self._ticks[: self._n] = 0
            self._events[: self._n] = 0
            self._fire_counts[:] = 0
            self._activation_counts[:] = 0
            self._activation_total = 0
            self._body_total = 0
            self._queue_total = 0
            self._budget_stops = 0

    @property
    def instances(self) -> int:
        return self._n

    @property
    def events_total(self) -> int:
        return int(self._events[: self._n].sum())

    def _grow(self, needed: int) -> None:
        capacity = len(self._cycles)
        if needed <= capacity:
            return
        new_cap = max(needed, 2 * capacity)
        for name in ("_cycles", "_ticks", "_events", "_state_of_row"):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)
        old_m = self._markings
        self._markings = np.empty((new_cap, old_m.shape[1]), dtype=np.int64)
        self._markings[: self._n] = old_m[: self._n]

    def add_instances(self, count: int) -> np.ndarray:
        """Register ``count`` fresh instances; returns their row indices."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        self._grow(self._n + count)
        rows = np.arange(self._n, self._n + count, dtype=np.int64)
        self._markings[rows] = self._initial
        self._cycles[rows] = 0
        self._ticks[rows] = 0
        self._events[rows] = 0
        if self._memo_active:
            self._state_of_row[rows] = self._intern_state(self._initial)
        self._n += count
        return rows

    def export_instance(self, row: int) -> Tuple[List[int], int, int, int]:
        """Snapshot one instance's migratable state
        (marking, cycles, events, delay ticks).

        Aggregate accounting (firings, activations, cycle totals) stays
        with the exporting kernel — the supervisor sums it across shards
        anyway, so migration never loses or double-counts work.
        """
        if self._memo_active:
            marking = self._state_mark[self._state_of_row[row]]
        else:
            marking = self._markings[row]
        return (
            [int(v) for v in marking],
            int(self._cycles[row]),
            int(self._events[row]),
            int(self._ticks[row]),
        )

    def remove_instance(self, row: int) -> int:
        """Drop one instance (after :meth:`export_instance` for migration).

        The last row is swapped into the vacated slot; returns the old
        index of that moved row so callers can fix their key maps.
        Aggregate accounting keeps the removed instance's *past*
        contribution — its future work accrues wherever it is imported,
        so fleet-wide sums still count every charge exactly once.
        """
        last = self._n - 1
        if row != last:
            self._markings[row] = self._markings[last]
            self._cycles[row] = self._cycles[last]
            self._ticks[row] = self._ticks[last]
            self._events[row] = self._events[last]
            self._state_of_row[row] = self._state_of_row[last]
        self._n = last
        return last

    def import_instance(self, state: Sequence) -> int:
        """Restore a migrated instance; returns its new row index.

        Accepts both the current 4-tuple snapshot and the pre-timing
        3-tuple (``ticks`` defaults to 0), so mixed-version shards can
        still exchange instances mid-rollout.
        """
        marking, cycles, events = state[0], state[1], state[2]
        ticks = state[3] if len(state) > 3 else 0
        row = int(self.add_instances(1)[0])
        vector = np.array(list(marking), dtype=np.int64)
        self._markings[row] = vector
        self._cycles[row] = cycles
        self._ticks[row] = ticks
        self._events[row] = events
        if self._memo_active:
            self._state_of_row[row] = self._intern_state(vector)
        return row

    # ------------------------------------------------------------------
    # Dispatch: one event per listed instance row
    # ------------------------------------------------------------------
    def dispatch(self, rows: Sequence[int], events: Sequence[Event]) -> None:
        """Serve one *round*: ``events[j]`` is dispatched to instance
        ``rows[j]``.  Rows must be unique within a call (an instance's
        events are ordered; feed them in consecutive rounds)."""
        count = len(events)
        if count == 0:
            return
        row_arr = np.asarray(rows, dtype=np.int64)
        src_ids, sig_ids = self.prepare_events(events)
        self.dispatch_ids(row_arr, src_ids, sig_ids)

    def dispatch_ordered(
        self, rows: np.ndarray, src_ids: np.ndarray, sig_ids: np.ndarray
    ) -> None:
        """Serve an ordered packed batch in which rows may repeat.

        Event ``j`` goes to instance ``rows[j]``, and every instance
        sees its events in batch order.  The batch is grouped into
        occurrence *rounds* — round ``k`` carries the ``k``-th event of
        every instance present — and each round is one vectorized
        :meth:`dispatch_ids` call.
        """
        count = len(rows)
        if count == 0:
            return
        # stable sort by row: each row's events stay in batch order and
        # form one contiguous run [starts[g], starts[g] + counts[g])
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        boundaries = np.empty(count, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        counts = np.diff(np.append(starts, count))
        max_rounds = int(counts.max())
        if max_rounds == 1:
            self.dispatch_ids(rows, src_ids, sig_ids)
            return
        for k in range(max_rounds):
            sel = order[starts[counts > k] + k]
            self.dispatch_ids(rows[sel], src_ids[sel], sig_ids[sel])

    def dispatch_ids(
        self, rows: np.ndarray, src_ids: np.ndarray, sig_ids: np.ndarray
    ) -> None:
        """:meth:`dispatch` for pre-interned events (see :meth:`prepare_events`)."""
        if len(src_ids) == 0:
            return
        if self._memo_active and (
            self._state_count > MEMO_STATE_LIMIT
            or self._c_count > MEMO_STATE_LIMIT
        ):
            self._flush_memo()
        if self._memo_active:
            self._dispatch_memo(rows, src_ids, sig_ids)
        else:
            self._dispatch_direct(rows, src_ids, sig_ids)

    def prepare_events(
        self, events: Sequence[Event]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Intern a batch of events into (source id, signature id) columns
        through the kernel's :class:`SignatureTable`."""
        return self.signatures.intern_events(events)

    # -- memoized path -------------------------------------------------
    def _flush_memo(self) -> None:
        """Drop the state/cascade tables (population outgrew the limit).

        After :data:`MEMO_MAX_FLUSHES` flushes the kernel concludes the
        net is not memoization-friendly and switches to the direct loop.
        """
        self._materialize_markings()
        self._memo_flushes += 1
        if self._memo_flushes >= MEMO_MAX_FLUSHES:
            self._memo_active = False
            return
        self._clear_cascades()
        live = self._markings[: self._n]
        if self._n:
            unique, inverse = np.unique(live, axis=0, return_inverse=True)
            ids = np.array(
                [self._intern_state(unique[k]) for k in range(len(unique))],
                dtype=np.int64,
            )
            self._state_of_row[: self._n] = ids[inverse]

    def _materialize_markings(self) -> None:
        if self._memo_active and self._n:
            self._markings[: self._n] = self._state_mark[
                self._state_of_row[: self._n]
            ]

    def _dispatch_memo(
        self, rows: np.ndarray, src_ids: np.ndarray, sig_ids: np.ndarray
    ) -> None:
        state_ids = self._state_of_row[rows]
        # pack (state, src, sig) into one sortable key; spans are
        # per-round local, the cascade index itself is keyed by tuples
        span_sig = self.signatures.count
        span_src = len(self.cnet.transitions)
        packed = (state_ids * span_src + src_ids) * span_sig + sig_ids
        unique_keys, inverse = np.unique(packed, return_inverse=True)
        cascade_of_key = np.empty(len(unique_keys), dtype=np.int64)
        cascade_index = self._cascade_index
        for k, key in enumerate(unique_keys.tolist()):
            sig = key % span_sig
            rest = key // span_sig
            src = rest % span_src
            state = rest // span_src
            cascade_id = cascade_index.get((state, src, sig))
            if cascade_id is None:
                cascade_id = self._compute_cascade(int(state), int(src), int(sig))
            cascade_of_key[k] = cascade_id
        cascade_ids = cascade_of_key[inverse]

        bad = self._c_bad[cascade_ids]
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            name = self.cnet.transitions[int(src_ids[first])]
            raise NotEnabledError(
                f"transition {name!r} is not enabled in instance "
                f"{int(rows[first])}"
            )

        self._cycles[rows] += self._c_cycles[cascade_ids]
        if self._timed:
            self._ticks[rows] += self._c_ticks[cascade_ids]
        self._events[rows] += 1
        self._state_of_row[rows] = self._c_end[cascade_ids]
        unique_cascades, counts = np.unique(cascade_ids, return_counts=True)
        self._fire_counts += self._c_fired[unique_cascades].T @ counts
        self._activation_counts += self._c_act[unique_cascades].T @ counts
        self._body_total += int(self._c_body[unique_cascades] @ counts)
        self._queue_total += int(self._c_queue[unique_cascades] @ counts)
        self._activation_total += int(self._c_act_total[unique_cascades] @ counts)
        self._budget_stops += int(
            counts[self._c_stopped[unique_cascades]].sum()
        )

    def _compute_cascade(self, state: int, src: int, sig: int) -> int:
        """Simulate one (state, source, signature) event to quiescence.

        A literal single-row transcription of the direct batched loop —
        the cascade must charge cycle for cycle what the loop charges.
        """
        pre = self.cnet.pre
        incidence = self.cnet.incidence
        fire_cycles = self._fire_cycles
        module_of = self._module_of
        allowed = self.signatures.allowed[sig] & self._nonsource
        activation = self.cost.activation_cycles
        queue_round_trip = 2 * self.cost.queue_op_cycles
        budget = self.max_firings_per_event
        stop_on_budget = self.on_budget == "stop"

        n_t = len(self.cnet.transitions)
        fired = np.zeros(n_t, dtype=np.int64)
        activations = np.zeros(len(self._module_names), dtype=np.int64)
        marking = self._state_mark[state].copy()
        bad = not bool(np.all(marking >= pre[src]))
        cycles = body = queue = activation_total = 0
        stopped = False
        if not bad:
            cycles = int(activation + fire_cycles[src])
            activations[module_of[src]] += 1
            activation_total = activation
            marking += incidence[src]
            fired[src] += 1
            body = int(fire_cycles[src])
            current_module = int(module_of[src])
            firings = 1
            while True:
                candidates = np.all(marking >= pre, axis=1) & allowed
                if not candidates.any():
                    break
                chosen = int(candidates.argmax())
                module = int(module_of[chosen])
                if module != current_module:
                    cycles += queue_round_trip + activation
                    queue += queue_round_trip
                    activation_total += activation
                    activations[module] += 1
                    current_module = module
                marking += incidence[chosen]
                cycles += int(fire_cycles[chosen])
                fired[chosen] += 1
                body += int(fire_cycles[chosen])
                firings += 1
                if firings > budget:
                    if not stop_on_budget:
                        raise RuntimeError(QUIESCENCE_MESSAGE)
                    stopped = True
                    break

        cascade_id = self._c_count
        if cascade_id >= len(self._c_end):
            for name in (
                "_c_end",
                "_c_cycles",
                "_c_ticks",
                "_c_body",
                "_c_queue",
                "_c_act_total",
                "_c_stopped",
                "_c_bad",
            ):
                old = getattr(self, name)
                grown = np.empty(2 * len(old), dtype=old.dtype)
                grown[: len(old)] = old
                setattr(self, name, grown)
            for name in ("_c_fired", "_c_act"):
                old = getattr(self, name)
                grown = np.empty((2 * len(old), old.shape[1]), dtype=old.dtype)
                grown[: len(old)] = old
                setattr(self, name, grown)
        self._c_end[cascade_id] = state if bad else self._intern_state(marking)
        self._c_cycles[cascade_id] = cycles
        # integer matmul == the direct loop's per-firing accumulation,
        # so memoized replay stays byte-identical on the timed axis too
        self._c_ticks[cascade_id] = int(fired @ self._tick_vector)
        self._c_body[cascade_id] = body
        self._c_queue[cascade_id] = queue
        self._c_act_total[cascade_id] = activation_total
        self._c_stopped[cascade_id] = stopped
        self._c_bad[cascade_id] = bad
        self._c_fired[cascade_id] = fired
        self._c_act[cascade_id] = activations
        self._cascade_index[(state, src, sig)] = cascade_id
        self._c_count += 1
        return cascade_id

    # -- direct path (the original batched loop) -----------------------
    def _dispatch_direct(
        self, rows: np.ndarray, src_ids: np.ndarray, sig_ids: np.ndarray
    ) -> None:
        cnet = self.cnet
        count = len(rows)
        pre = cnet.pre
        incidence = cnet.incidence
        fire_cycles = self._fire_cycles
        module_of = self._module_of
        nonsource = self._nonsource
        markings = self._markings
        activation = self.cost.activation_cycles
        queue_round_trip = 2 * self.cost.queue_op_cycles
        budget = self.max_firings_per_event
        stop_on_budget = self.on_budget == "stop"

        allowed = self.signatures.allowed[sig_ids]

        # dispatch: one activation per event, then fire the source
        src_modules = module_of[src_ids]
        if not np.all(markings[rows] >= pre[src_ids]):
            bad = rows[~np.all(markings[rows] >= pre[src_ids], axis=1)][0]
            position = int(np.flatnonzero(rows == bad)[0])
            name = cnet.transitions[int(src_ids[position])]
            raise NotEnabledError(
                f"transition {name!r} is not enabled in instance {int(bad)}"
            )
        self._cycles[rows] += activation + fire_cycles[src_ids]
        if self._timed:
            self._ticks[rows] += self._tick_vector[src_ids]
        np.add.at(self._activation_counts, src_modules, 1)
        self._activation_total += activation * count
        markings[rows] += incidence[src_ids]
        np.add.at(self._fire_counts, src_ids, 1)
        self._body_total += int(fire_cycles[src_ids].sum())
        self._events[rows] += 1

        # run to quiescence, one batched firing per iteration
        current_module = src_modules.copy()
        firings = np.ones(count, dtype=np.int64)
        active = np.arange(count)
        while active.size:
            sub_rows = rows[active]
            enabled = np.all(
                markings[sub_rows][:, np.newaxis, :] >= pre[np.newaxis, :, :],
                axis=2,
            )
            candidates = enabled & allowed[active] & nonsource[np.newaxis, :]
            has_candidate = candidates.any(axis=1)
            active = active[has_candidate]
            if not active.size:
                break
            candidates = candidates[has_candidate]
            sub_rows = rows[active]
            # argmax of a boolean row = first True = lowest transition
            # id = the reactive simulator's "first candidate in insertion order"
            chosen = candidates.argmax(axis=1)
            modules = module_of[chosen]
            crossed = modules != current_module[active]
            if crossed.any():
                crossed_count = int(crossed.sum())
                self._cycles[sub_rows[crossed]] += queue_round_trip + activation
                self._queue_total += queue_round_trip * crossed_count
                self._activation_total += activation * crossed_count
                np.add.at(self._activation_counts, modules[crossed], 1)
            current_module[active] = modules
            markings[sub_rows] += incidence[chosen]
            self._cycles[sub_rows] += fire_cycles[chosen]
            if self._timed:
                self._ticks[sub_rows] += self._tick_vector[chosen]
            np.add.at(self._fire_counts, chosen, 1)
            self._body_total += int(fire_cycles[chosen].sum())
            firings[active] += 1
            over = firings[active] > budget
            if over.any():
                if not stop_on_budget:
                    raise RuntimeError(QUIESCENCE_MESSAGE)
                self._budget_stops += int(over.sum())
                active = active[~over]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def aggregate_stats(self) -> ExecutionStats:
        """The aggregate :class:`ExecutionStats` accumulated so far."""
        stats = ExecutionStats()
        stats.events_processed = int(self._events[: self._n].sum())
        stats.activation_cycles = self._activation_total
        stats.body_cycles = self._body_total
        stats.queue_cycles = self._queue_total
        stats.total_cycles = (
            self._activation_total + self._body_total + self._queue_total
        )
        stats.budget_stops = self._budget_stops
        if self._timed:
            # total delay is a pure function of the firing counts, so
            # the aggregate needs no separate accumulator
            stats.delay_ticks = int(self._fire_counts @ self._tick_vector)
        stats.activations = {
            self._module_names[m]: int(c)
            for m, c in enumerate(self._activation_counts)
            if c
        }
        stats.firings = {
            self.cnet.transitions[t]: int(c)
            for t, c in enumerate(self._fire_counts)
            if c
        }
        return stats

    def instance_cycles(self) -> np.ndarray:
        return self._cycles[: self._n].copy()

    def instance_events(self) -> np.ndarray:
        return self._events[: self._n].copy()

    def instance_ticks(self) -> Optional[np.ndarray]:
        """Per-instance delay totals (``None`` when untimed)."""
        if not self._timed:
            return None
        return self._ticks[: self._n].copy()

    def result(self, elapsed_seconds: float = 0.0) -> FleetResult:
        """Fold the accumulated accounting into a :class:`FleetResult`."""
        return FleetResult(
            stats=self.aggregate_stats(),
            instance_cycles=self.instance_cycles(),
            instance_events=self.instance_events(),
            engine=ENGINE_COMPILED,
            elapsed_seconds=elapsed_seconds,
            instance_ticks=self.instance_ticks(),
        )


class FleetSimulator:
    """Steps N independent instances of one net as a single batch.

    A thin stream-orchestration layer over :class:`FleetEngine`: the
    complete per-instance streams are packed into one ordered batch and
    served through :meth:`FleetEngine.dispatch_ordered`, the same entry
    point the always-on shards of :mod:`repro.service` use.

    Parameters
    ----------
    net:
        The specification (:class:`PetriNet` or pre-compiled
        :class:`CompiledNet`).
    assignment:
        Task of every transition (must cover *all* transitions).
    cost_model / max_firings_per_event / on_budget / timing:
        As for :class:`~repro.runtime.reactive.ReactiveNetSimulator`.
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
        self.kernel = FleetEngine(
            net,
            assignment,
            cost_model=cost_model,
            max_firings_per_event=max_firings_per_event,
            on_budget=on_budget,
            timing=timing,
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self, streams: Sequence[Sequence[Event]], workers: int = 1
    ) -> FleetResult:
        """Execute one event stream per instance and return the fleet result.

        Each stream is served in time order (stable for equal times).
        ``workers > 1`` serves the fleet through a drained process-backed
        :class:`~repro.service.FleetSupervisor` with ``min(workers, N)``
        shards (identical results, ordered by instance); it runs its own
        event loop, so call it from synchronous code.
        """
        started = time.perf_counter()
        if workers > 1 and len(streams) > 1:
            result = asyncio.run(self._run_sharded(streams, workers))
        else:
            result = self._run_kernel(streams)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # One packed batch through the kernel entry point
    # ------------------------------------------------------------------
    def _run_kernel(self, streams: Sequence[Sequence[Event]]) -> FleetResult:
        kernel = self.kernel
        events, rows = _time_ordered(streams)
        src_ids, sig_ids = kernel.prepare_events(events)
        kernel.reset(len(streams))
        kernel.dispatch_ordered(rows, src_ids, sig_ids)
        return kernel.result()

    async def _run_sharded(
        self, streams: Sequence[Sequence[Event]], workers: int
    ) -> FleetResult:
        from ..service import FleetSupervisor, InjectBatchPacked

        n = len(streams)
        kernel = self.kernel
        supervisor = FleetSupervisor(
            kernel.cnet,
            kernel.assignment,
            cost_model=kernel.cost,
            max_firings_per_event=kernel.max_firings_per_event,
            on_budget=kernel.on_budget,
            shards=min(workers, n),
            backend="process",
            timing=kernel.timing,
        )
        events, rows = _time_ordered(streams)
        sources, signatures = supervisor.signatures.intern_events(events)
        await supervisor.start()
        try:
            await supervisor.inject(
                InjectBatchPacked(
                    instances=rows, sources=sources, signatures=signatures
                )
            )
        finally:
            merged = await supervisor.stop(drain=True)
        # instances with empty streams never reach a shard: the merge
        # orders the ones that did by key, the rest are exact zeros
        present = np.unique(rows)
        for name in ("instance_cycles", "instance_events", "instance_ticks"):
            values = getattr(merged, name)
            if values is not None:
                full = np.zeros(n, dtype=np.int64)
                full[present] = values
                setattr(merged, name, full)
        return merged


def _time_ordered(
    streams: Sequence[Sequence[Event]],
) -> Tuple[List[Event], np.ndarray]:
    """Concatenate the streams, each stably sorted by time, with the
    instance index of every event (the packed ``rows`` column)."""
    by_time = operator.attrgetter("time")
    events: List[Event] = []
    for stream in streams:
        events.extend(sorted(stream, key=by_time))
    lengths = np.fromiter(
        (len(stream) for stream in streams), dtype=np.int64, count=len(streams)
    )
    return events, np.repeat(np.arange(len(streams), dtype=np.int64), lengths)


# ----------------------------------------------------------------------
# Generic workload synthesis (any net)
# ----------------------------------------------------------------------
def synthetic_streams(
    net: Union[PetriNet, CompiledNet],
    instances: int,
    events_per_instance: int,
    seed: int = 0,
    mean_interval: float = 1.0,
    arrival: str = "exponential",
    choice_policy: Optional[StochasticChoicePolicy] = None,
) -> List[List[Event]]:
    """Reproducible per-instance event streams for an arbitrary net.

    Every source transition of the net emits events through the chosen
    arrival process (``"exponential"`` — the historical default — or the
    ``"bursty"`` / ``"diurnal"`` processes of
    :mod:`repro.runtime.events`); the per-instance streams are merged in
    time order and truncated to ``events_per_instance``, and every event
    carries choice resolutions drawn from a per-instance seeded
    :class:`~repro.runtime.events.ChoiceSampler` — uniformly over each
    choice place's successors by default, or from the weighted odds of
    ``choice_policy``.  Used by the corpus runtime sweep and the
    differential suites; nets without source transitions yield empty
    streams.  The streams are fully determined by the arguments —
    identical across processes and platforms
    (`tests/test_service_differential.py` pins the default path,
    `tests/test_stochastic_determinism.py` the new arrival processes and
    weighted policies, because the service's process-backed shards rely
    on it).
    """
    validate_arrival(arrival)
    named = net.decompile() if isinstance(net, CompiledNet) else net
    sources = named.source_transitions()
    if choice_policy is not None:
        probabilities = choice_policy.probabilities
    else:
        probabilities = {
            place: {t: 1.0 for t in named.postset_names(place)}
            for place in named.choice_places()
        }
    streams: List[List[Event]] = []
    for i in range(instances):
        if not sources:
            streams.append([])
            continue
        base = seed * 1_000_003 + i * 7_919
        per_source = [
            arrival_events(
                arrival,
                source,
                mean_interval=mean_interval,
                count=events_per_instance,
                seed=base + s_idx,
            )
            for s_idx, source in enumerate(sources)
        ]
        merged = merge_streams(*per_source)[:events_per_instance]
        sampler = ChoiceSampler(probabilities, seed=base + 104_729)
        streams.append(with_choices(merged, sampler))
    return streams
