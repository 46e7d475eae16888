"""The fleet supervisor: hash-sharded routing over always-on shard actors.

The supervisor owns N shards — each a :class:`~repro.service.shard`
actor around its own :class:`~repro.runtime.fleet.FleetEngine` — and
routes every instance key to one shard with a deterministic
multiplicative hash (plus an override map maintained by migration), so
one instance's events always land on one kernel in order.  Two shard
backends share the same :class:`~repro.service.shard.ShardCore`:

``async``
    Every shard is an asyncio task on the supervisor's event loop.
    The default: in-process, zero serialization, supports work
    stealing, and the backend the differential suite pins against the
    one-shot batch path.

``process``
    Every shard is a ``multiprocessing`` worker process; packed batches
    travel its pipe as binary frames (:mod:`repro.service.messages`),
    control requests as wire-codec lines inside control frames, and
    replies resolve FIFO futures.  Buys real parallelism on multi-core
    machines at serialization cost, and is what
    ``FleetSimulator.run(streams, workers=N)`` runs on.  A worker that
    dies fails every pending and later request with
    :class:`ShardFailed` (or with the error the worker reported)
    instead of hanging.

Every inject is packed at the boundary (:meth:`FleetSupervisor.pack`),
so both backends carry only :class:`~repro.service.messages.InjectBatchPacked`
batches plus control messages, and every shard serves them through the
kernel's one entry point,
:meth:`~repro.runtime.fleet.FleetEngine.dispatch_ordered`.

**Work stealing** (async backend): :meth:`FleetSupervisor.rebalance`
— called periodically when ``rebalance_interval`` is set — compares
shard inbox depths and migrates instances from the hottest shard to
the coldest one.  Migration is supervisor-mediated and loses nothing:
routing pauses under the supervisor lock, the hot inbox drains
(``join()``), the instances' marking/cycle/event state moves via
export/import, and the override map redirects future events.  Fleet
totals still count every charge exactly once because aggregate
accounting stays where it accrued while per-instance state travels.

:meth:`FleetSupervisor.stop` with ``drain=True`` serves every queued
event, then merges the per-shard results into one
:class:`~repro.runtime.fleet.FleetResult` ordered by instance key —
byte-identical to a one-shot :class:`~repro.runtime.fleet.FleetSimulator`
run over the same streams (pinned by ``tests/test_service_differential.py``).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..petrinet import PetriNet
from ..petrinet.compiled import ENGINE_COMPILED, CompiledNet, compile_net
from ..runtime.cost import CostModel
from ..runtime.fleet import FleetEngine, FleetResult, SignatureTable
from ..runtime.reactive import ModuleAssignment, validate_budget_policy
from ..runtime.rtos import ExecutionStats
from ..runtime.stochastic import TimingModel
from .messages import (
    FRAME_CONTROL,
    FRAME_PACKED,
    FRAME_RESULT,
    Ack,
    InjectBatch,
    InjectBatchPacked,
    InjectEvent,
    ProtocolError,
    Reload,
    ShardStats,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    decode_frame,
    encode_frame_control,
    encode_frame_packed,
    encode_frame_result,
)
from .shard import DEFAULT_INBOX_LIMIT, ShardActor, ShardCore

#: Supported shard backends.
SERVICE_BACKENDS = ("async", "process")

#: Knuth's multiplicative hash constant (2^32 / phi).
_HASH_MULTIPLIER = 2_654_435_761


def validate_backend(backend: str) -> str:
    if backend not in SERVICE_BACKENDS:
        raise ValueError(
            f"unknown service backend {backend!r} "
            f"(choose from {', '.join(SERVICE_BACKENDS)})"
        )
    return backend


class FleetSupervisor:
    """Routes instance keys over sharded fleet actors; merges their results."""

    def __init__(
        self,
        net: Union[PetriNet, CompiledNet],
        assignment: ModuleAssignment,
        cost_model: Optional[CostModel] = None,
        max_firings_per_event: int = 100_000,
        on_budget: str = "error",
        shards: int = 1,
        backend: str = "async",
        inbox_limit: int = DEFAULT_INBOX_LIMIT,
        rebalance_interval: Optional[float] = None,
        rebalance_threshold: int = 64,
        timing: Optional[TimingModel] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        self.backend = validate_backend(backend)
        if rebalance_interval is not None and self.backend != "async":
            raise ValueError("work stealing requires the async backend")
        self.net = net
        self.assignment = assignment
        self.cost = cost_model or CostModel()
        self.max_firings_per_event = max_firings_per_event
        self.on_budget = validate_budget_policy(on_budget)
        self.timing = timing
        self.shards = shards
        self.inbox_limit = inbox_limit
        self.rebalance_interval = rebalance_interval
        self.rebalance_threshold = rebalance_threshold
        # the ingest-boundary intern tables: every event is turned into
        # integer ids exactly once, here; async shard engines share the
        # signature table directly, process shards replay definition
        # deltas shipped inside the binary packed frames
        self.compiled: CompiledNet = (
            net if isinstance(net, CompiledNet) else compile_net(net)
        )
        self.signatures = SignatureTable(self.compiled)
        self._route_override: Dict[int, int] = {}
        self._route_lock: Optional[asyncio.Lock] = None
        self._actors: List[ShardActor] = []
        self._tasks: List["asyncio.Task"] = []
        self._handles: List["_ProcessShardHandle"] = []
        self._rebalance_task: Optional["asyncio.Task"] = None
        self.migrations = 0
        self._started_at = 0.0
        self._running = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, instance: int) -> int:
        """Deterministic instance→shard routing (override map first)."""
        override = self._route_override.get(instance)
        if override is not None:
            return override
        return ((instance * _HASH_MULTIPLIER) & 0xFFFFFFFF) % self.shards

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            raise RuntimeError("supervisor is already running")
        self._route_lock = asyncio.Lock()
        self._started_at = time.perf_counter()
        if self.backend == "async":
            for shard_id in range(self.shards):
                engine = FleetEngine(
                    self.compiled,
                    self.assignment,
                    cost_model=self.cost,
                    max_firings_per_event=self.max_firings_per_event,
                    on_budget=self.on_budget,
                    timing=self.timing,
                    signatures=self.signatures,
                )
                actor = ShardActor(shard_id, engine, inbox_limit=self.inbox_limit)
                self._actors.append(actor)
                self._tasks.append(asyncio.create_task(actor.run()))
            if self.rebalance_interval is not None:
                self._rebalance_task = asyncio.create_task(
                    self._rebalance_loop()
                )
        else:
            from ..petrinet.serialization import net_to_json

            named = (
                self.net.decompile()
                if isinstance(self.net, CompiledNet)
                else self.net
            )
            net_json = net_to_json(named)
            for shard_id in range(self.shards):
                handle = _ProcessShardHandle(
                    shard_id,
                    net_json,
                    dict(self.assignment.modules),
                    self.cost,
                    self.max_firings_per_event,
                    self.on_budget,
                    self.timing,
                    signatures=self.signatures,
                )
                await handle.start()
                self._handles.append(handle)
        self._running = True

    async def stop(self, drain: bool = True) -> FleetResult:
        """Stop every shard and merge their results by instance key."""
        if not self._running:
            raise RuntimeError("supervisor is not running")
        if self._rebalance_task is not None:
            self._rebalance_task.cancel()
            try:
                await self._rebalance_task
            except asyncio.CancelledError:
                pass
        self._running = False
        if self.backend == "async":
            futures = []
            for actor in self._actors:
                future: "asyncio.Future" = asyncio.get_running_loop().create_future()
                await actor.put((Shutdown(drain=drain), future))
                futures.append(future)
            replies = await asyncio.gather(*futures, return_exceptions=True)
            await asyncio.gather(*self._tasks)
        else:
            replies = await asyncio.gather(
                *(handle.shutdown(drain) for handle in self._handles),
                return_exceptions=True,
            )
            for handle in self._handles:
                await handle.join()
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply  # a failed shard; every shard has stopped
        parts: List[Tuple[List[int], FleetResult]] = list(replies)
        elapsed = time.perf_counter() - self._started_at
        return _merge_results(parts, elapsed)

    # ------------------------------------------------------------------
    # Ingest-boundary packing
    # ------------------------------------------------------------------
    def pack(self, events: Sequence[InjectEvent]) -> InjectBatchPacked:
        """Intern a batch of string-keyed injects into packed id columns.

        The *only* place the service touches event strings: sources and
        choice resolutions intern through the shared table's
        :meth:`~repro.runtime.fleet.SignatureTable.intern_events`.  In the
        steady state every lookup is a dict hit; the returned ndarray
        batch flows through routing, inboxes and kernels zero-copy.
        Unknown source transitions fail here, at the boundary, rather
        than inside a shard's actor loop.
        """
        sources, signatures = self.signatures.intern_events(events)
        instances = np.fromiter(
            (event.instance for event in events),
            dtype=np.int64,
            count=len(events),
        )
        return InjectBatchPacked(
            instances=instances, sources=sources, signatures=signatures
        )

    def _shards_of(self, instances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shard_of` over an instance-key column."""
        # int64 products wrap mod 2^64; & 0xFFFFFFFF recovers the exact
        # low 32 bits, so this matches the scalar Python-int hash
        with np.errstate(over="ignore"):
            shard_ids = (
                (instances * _HASH_MULTIPLIER) & 0xFFFFFFFF
            ) % self.shards
        if self._route_override:
            override_keys = np.fromiter(
                self._route_override, dtype=np.int64,
                count=len(self._route_override),
            )
            for position in np.flatnonzero(np.isin(instances, override_keys)):
                shard_ids[position] = self._route_override[
                    int(instances[position])
                ]
        return shard_ids

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def inject(
        self, message: Union[InjectEvent, InjectBatch, InjectBatchPacked]
    ) -> None:
        """Route an inject to its shard(s); awaits under backpressure.

        Every representation converges to :class:`InjectBatchPacked`
        here — strings are interned once, then the per-shard split is a
        handful of ndarray gathers and the shards never intern again.
        """
        lock = self._require_running()
        async with lock:
            if isinstance(message, InjectEvent):
                packed = self.pack((message,))
            elif isinstance(message, InjectBatch):
                packed = self.pack(message.events)
            else:
                packed = message
            if self.shards == 1:
                await self._put(0, packed)
                return
            shard_ids = self._shards_of(packed.instances)
            for shard_id in np.unique(shard_ids).tolist():
                await self._put(shard_id, packed.take(shard_ids == shard_id))

    async def snapshot(self) -> SnapshotReply:
        """Aggregate + per-shard statistics (observes prior injects)."""
        self._require_running()
        if self.backend == "async":
            loop = asyncio.get_running_loop()
            futures = []
            for actor in self._actors:
                future: "asyncio.Future" = loop.create_future()
                await actor.put((SnapshotRequest(), future))
                futures.append(future)
            stats: List[ShardStats] = list(await asyncio.gather(*futures))
        else:
            stats = list(
                await asyncio.gather(
                    *(handle.snapshot() for handle in self._handles)
                )
            )
        return SnapshotReply(
            request_id=0,
            instances=sum(s.instances for s in stats),
            events=sum(s.events for s in stats),
            cycles=sum(s.cycles for s in stats),
            budget_stops=sum(s.budget_stops for s in stats),
            shards=tuple(stats),
        )

    async def reload(self, reset_stats: bool = True) -> None:
        """Reset every shard's instances to the initial marking."""
        self._require_running()
        if self.backend == "async":
            loop = asyncio.get_running_loop()
            futures = []
            for actor in self._actors:
                future: "asyncio.Future" = loop.create_future()
                await actor.put((Reload(reset_stats=reset_stats), future))
                futures.append(future)
            await asyncio.gather(*futures)
        else:
            await asyncio.gather(
                *(
                    handle.reload(reset_stats=reset_stats)
                    for handle in self._handles
                )
            )

    # ------------------------------------------------------------------
    # Work stealing
    # ------------------------------------------------------------------
    async def rebalance(
        self,
        source: Optional[int] = None,
        target: Optional[int] = None,
        count: Optional[int] = None,
    ) -> int:
        """Migrate instances from the hottest shard to the coldest one.

        Without arguments, picks the deepest/shallowest inboxes and acts
        only when the depth gap exceeds ``rebalance_threshold``;
        explicit ``source``/``target``/``count`` force a migration (the
        deterministic path the tests drive).  Returns the number of
        instances moved.
        """
        self._require_running()
        if self.backend != "async":
            raise RuntimeError("work stealing requires the async backend")
        if self.shards < 2:
            return 0
        lock = self._route_lock
        async with lock:
            if source is None or target is None:
                depths = [actor.inbox.qsize() for actor in self._actors]
                source = int(np.argmax(depths))
                target = int(np.argmin(depths))
                if (
                    source == target
                    or depths[source] - depths[target]
                    < self.rebalance_threshold
                ):
                    return 0
            hot = self._actors[source]
            cold = self._actors[target]
            # no new events can route while we hold the lock; wait until
            # the hot shard has served everything already queued so the
            # exported state is complete
            await hot.inbox.join()
            keys = hot.instance_keys
            if count is None:
                count = max(1, len(keys) // 4)
            moved = keys[-count:] if count else []
            for key in moved:
                cold.import_instance(key, hot.export_instance(key))
                self._route_override[key] = target
            self.migrations += len(moved)
            return len(moved)

    async def _rebalance_loop(self) -> None:
        while True:
            await asyncio.sleep(self.rebalance_interval)
            await self.rebalance()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_running(self) -> asyncio.Lock:
        if not self._running:
            raise RuntimeError("supervisor is not running")
        return self._route_lock

    async def _put(self, shard_id: int, message: InjectBatchPacked) -> None:
        if self.backend == "async":
            await self._actors[shard_id].put(message)
        else:
            await self._handles[shard_id].send(message)


def _merge_results(
    parts: Sequence[Tuple[List[int], FleetResult]], elapsed: float
) -> FleetResult:
    """Merge per-shard results into one fleet result ordered by key."""
    aggregate = ExecutionStats()
    keyed: List[Tuple[int, int, int, int]] = []
    timed = any(result.instance_ticks is not None for _, result in parts)
    for keys, result in parts:
        aggregate.merge(result.stats)
        ticks = (
            result.instance_ticks.tolist()
            if result.instance_ticks is not None
            else [0] * len(keys)
        )
        keyed.extend(
            zip(
                keys,
                result.instance_cycles.tolist(),
                result.instance_events.tolist(),
                ticks,
            )
        )
    keyed.sort()
    cycles = np.array([c for _, c, _, _ in keyed], dtype=np.int64)
    events = np.array([e for _, _, e, _ in keyed], dtype=np.int64)
    return FleetResult(
        stats=aggregate,
        instance_cycles=cycles,
        instance_events=events,
        engine=ENGINE_COMPILED,
        elapsed_seconds=elapsed,
        instance_ticks=(
            np.array([t for _, _, _, t in keyed], dtype=np.int64)
            if timed
            else None
        ),
    )


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------
class ShardFailed(RuntimeError):
    """A process shard's worker died; its requests can never complete.

    Raised by every request that was pending when the worker's pipe hit
    EOF and by every later request to the same shard.  ``exitcode`` is
    the worker's exit status (negative for a signal, ``None`` if it
    had not exited yet).
    """

    def __init__(self, shard: int, exitcode: Optional[int]) -> None:
        super().__init__(f"shard {shard} worker died (exit code {exitcode})")
        self.shard = shard
        self.exitcode = exitcode


class _ProcessShardHandle:
    """Parent-side endpoint of one worker-process shard.

    Everything on the pipe is a binary frame (:mod:`repro.service.messages`):
    packed inject batches travel as length-prefixed raw int64 buffers,
    control requests as JSON wire lines inside control frames, and the
    terminal ``(keys, FleetResult)`` as one pickle frame.  Replies
    resolve a FIFO of pending futures (the pipe preserves order, so no
    request ids are needed).  Blocking pipe operations run in worker
    threads (``asyncio.to_thread``) so the event loop never stalls on a
    full pipe buffer.

    A worker that raises sends its exception in the result frame before
    exiting; a worker that dies silently (killed) closes the pipe.
    Either way every pending future fails — with the worker's exception
    or with :class:`ShardFailed` — and so does every later request.

    The handle also keeps its worker's :class:`SignatureTable` replica
    consistent: ``_sigs_synced`` is the high-water mark of signature
    ids the worker has seen, and every packed frame carries the
    definitions interned since — the worker replays them in id order,
    so both tables assign identical ids by construction.
    """

    def __init__(
        self,
        shard_id: int,
        net_json: str,
        modules: Dict[str, str],
        cost: CostModel,
        max_firings: int,
        on_budget: str,
        timing: Optional[TimingModel] = None,
        signatures: Optional[SignatureTable] = None,
    ) -> None:
        self.shard_id = shard_id
        self._spec = (net_json, modules, cost, max_firings, on_budget, timing)
        self._signatures = signatures
        self._sigs_synced = 1  # id 0 (the empty signature) is implicit
        self._process: Optional["object"] = None
        self._conn = None
        self._pending: Deque["asyncio.Future"] = deque()
        self._send_lock: Optional[asyncio.Lock] = None
        self._reader: Optional["asyncio.Task"] = None
        self._failure: Optional[BaseException] = None

    async def start(self) -> None:
        import multiprocessing

        parent, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_shard_worker,
            args=(child, self.shard_id) + self._spec,
            daemon=True,
        )
        process.start()
        child.close()
        self._process = process
        self._conn = parent
        self._send_lock = asyncio.Lock()
        self._reader = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        while True:
            try:
                data = await asyncio.to_thread(self._conn.recv_bytes)
            except (EOFError, OSError):
                await asyncio.to_thread(self._process.join, 5)
                self._fail(ShardFailed(self.shard_id, self._process.exitcode))
                return
            try:
                kind, reply = decode_frame(data)
            except ProtocolError as error:
                reply = error  # a garbled frame fails the shard too
            if isinstance(reply, Exception):  # the worker's last words
                self._fail(reply)
                return
            if self._pending:
                future = self._pending.popleft()
                if not future.done():
                    future.set_result(reply)
            if kind == FRAME_RESULT:  # the final (keys, FleetResult)
                return

    def _fail(self, error: BaseException) -> None:
        self._failure = error
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(error)

    async def _send(self, data: bytes) -> None:
        """Write one frame; a dead worker raises its failure instead."""
        if self._failure is not None:
            raise self._failure
        try:
            await asyncio.to_thread(self._conn.send_bytes, data)
        except OSError:
            # the pipe broke before the reader saw EOF: wait for it
            await asyncio.shield(self._reader)
            raise self._failure or ShardFailed(
                self.shard_id, self._process.exitcode
            )

    async def _request(self, message) -> "asyncio.Future":
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        async with self._send_lock:
            if self._failure is not None:
                raise self._failure
            self._pending.append(future)
            await self._send(encode_frame_control(message))
        return future

    async def send(self, message: InjectBatchPacked) -> None:
        async with self._send_lock:
            base = self._sigs_synced
            defs = self._signatures.definitions(base)
            await self._send(
                encode_frame_packed(message, sig_base=base, sig_defs=defs)
            )
            self._sigs_synced = base + len(defs)

    async def snapshot(self) -> ShardStats:
        return await (await self._request(SnapshotRequest()))

    async def reload(self, reset_stats: bool = True) -> None:
        await (await self._request(Reload(reset_stats=reset_stats)))

    async def shutdown(self, drain: bool) -> Tuple[List[int], FleetResult]:
        return await (await self._request(Shutdown(drain=drain)))

    async def join(self) -> None:
        if self._reader is not None:
            await self._reader
        if self._process is not None:
            await asyncio.to_thread(self._process.join, 10)
        if self._conn is not None:
            self._conn.close()


def _shard_worker(
    conn,
    shard_id: int,
    net_json: str,
    modules: Dict[str, str],
    cost: CostModel,
    max_firings: int,
    on_budget: str,
    timing: Optional[TimingModel],
) -> None:  # pragma: no cover - runs inside the worker process
    """Synchronous shard loop: drain the pipe into a ShardCore.

    The worker keeps a :class:`SignatureTable` replica of the
    supervisor's intern table — packed frames carry the definitions of
    any signatures interned since the last frame, replayed here in id
    order so a signature id means the same resolution on both sides of
    the pipe.  Like the async actor, every packed batch drained in one
    pass coalesces into a single vectorized dispatch.  An exception is
    sent back in the result frame before the worker exits with it.
    """
    from ..petrinet.compiled import compile_net as _compile
    from ..petrinet.serialization import net_from_json

    cnet = _compile(net_from_json(net_json))
    signatures = SignatureTable(cnet)
    engine = FleetEngine(
        cnet,
        ModuleAssignment(modules=modules),
        cost_model=cost,
        max_firings_per_event=max_firings,
        on_budget=on_budget,
        timing=timing,
        signatures=signatures,
    )
    core = ShardCore(shard_id, engine)
    try:
        _serve_pipe(conn, core, signatures)
    except Exception as error:
        conn.send_bytes(encode_frame_result(error))
        raise
    finally:
        conn.close()


def _serve_pipe(
    conn, core: ShardCore, signatures: SignatureTable
) -> None:  # pragma: no cover - runs inside the worker process
    def sync_signatures(sig_base: int, sig_defs) -> None:
        if not sig_defs:
            return
        if signatures.count != sig_base:
            raise RuntimeError(
                f"signature table out of sync: worker has "
                f"{signatures.count} ids, frame starts at {sig_base}"
            )
        for offset, definition in enumerate(sig_defs):
            assigned = signatures.intern(definition)
            if assigned != sig_base + offset:
                raise RuntimeError(
                    f"signature replay drift: {definition!r} interned as "
                    f"{assigned}, expected {sig_base + offset}"
                )

    packed: List[InjectBatchPacked] = []

    def flush() -> None:
        if packed:
            core.serve_packed(InjectBatchPacked.concat(packed))
            packed.clear()

    while True:
        try:
            frames = [decode_frame(conn.recv_bytes())]
        except EOFError:
            return
        while conn.poll():
            frames.append(decode_frame(conn.recv_bytes()))
        for kind, payload in frames:
            if kind == FRAME_PACKED:
                batch, sig_base, sig_defs = payload
                sync_signatures(sig_base, sig_defs)
                packed.append(batch)
                continue
            message = payload
            if isinstance(message, SnapshotRequest):
                flush()
                conn.send_bytes(
                    encode_frame_control(core.stats(queue_depth=0))
                )
            elif isinstance(message, Reload):
                flush()
                core.reload(reset_stats=message.reset_stats)
                conn.send_bytes(encode_frame_control(Ack()))
            elif isinstance(message, Shutdown):
                if message.drain:
                    flush()
                conn.send_bytes(encode_frame_result(core.result()))
                return
        flush()
