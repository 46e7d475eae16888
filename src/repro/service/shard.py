"""The shard actor: one always-on asyncio task around one FleetEngine.

A shard owns a subset of the fleet's instances and serves their events
from a **bounded inbox** (`asyncio.Queue(maxsize=inbox_limit)`):
producers ``await put(...)`` and suspend while the shard is saturated,
which is the service's backpressure — socket readers stop reading, TCP
windows fill, and the client slows down instead of the server growing
an unbounded buffer.  ``try_put`` is the non-blocking variant for
callers that prefer an explicit overflow signal.

The inbox carries only packed batches
(:class:`~repro.service.messages.InjectBatchPacked`, interned once at
the supervisor boundary) and control items.  The actor loop drains it
in batches (everything immediately available after the first blocking
``get``), coalesces the drained packed batches into one, resolves
instance keys to kernel rows and hands the batch to
:meth:`~repro.runtime.fleet.FleetEngine.dispatch_ordered`, which
preserves per-instance event order while dispatching whole occurrence
rounds as single numpy operations.  Control messages
(:class:`~repro.service.messages.SnapshotRequest`,
:class:`~repro.service.messages.Reload`,
:class:`~repro.service.messages.Shutdown`) ride the same inbox, so
they observe every event enqueued before them.

:class:`ShardCore` is the event-loop-free heart of the actor (instance
registry + packed serving + migration); the ``multiprocessing``
worker of :mod:`repro.service.supervisor` drives the same core
synchronously from its pipe, so both shard backends serve events
identically by construction.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..runtime.fleet import FleetEngine, FleetResult
from .messages import (
    InjectBatchPacked,
    Reload,
    ShardStats,
    Shutdown,
    SnapshotRequest,
)

#: Default inbox capacity (messages, where one packed batch counts once).
DEFAULT_INBOX_LIMIT = 1024

#: Instance keys in ``[0, _DENSE_KEY_LIMIT)`` resolve to rows through a
#: flat int64 gather (one vector op per packed batch); keys outside the
#: range — negative or astronomically sparse — fall back to the dict.
_DENSE_KEY_LIMIT = 1 << 24

_ControlItem = Tuple[Union[SnapshotRequest, Reload, Shutdown], "asyncio.Future"]
_InboxItem = Union[InjectBatchPacked, _ControlItem]


class ShardCore:
    """Backend-independent shard state: instance registry over one kernel."""

    def __init__(self, shard_id: int, engine: FleetEngine) -> None:
        self.shard_id = shard_id
        self.engine = engine
        self._rows: Dict[int, int] = {}  # instance key -> engine row
        self._keys: List[int] = []  # engine row -> instance key
        #: dense accelerator mirroring ``_rows`` for in-range keys; -1
        #: marks unregistered.  Kept in sync by registration + migration.
        self._dense_rows = np.full(1024, -1, dtype=np.int64)
        self._started = time.monotonic()
        self.events_served = 0

    # ------------------------------------------------------------------
    # Registry plumbing (dict authoritative, dense gather accelerator)
    # ------------------------------------------------------------------
    def _dense_set(self, key: int, row: int) -> None:
        if 0 <= key < _DENSE_KEY_LIMIT:
            if key >= len(self._dense_rows):
                grown = np.full(
                    max(2 * len(self._dense_rows), key + 1), -1, dtype=np.int64
                )
                grown[: len(self._dense_rows)] = self._dense_rows
                self._dense_rows = grown
            self._dense_rows[key] = row

    def _dense_del(self, key: int) -> None:
        if 0 <= key < len(self._dense_rows):
            self._dense_rows[key] = -1

    def _register(self, keys: Sequence[int]) -> None:
        """Register fresh instance keys (callers pre-filter known ones)."""
        new_rows = self.engine.add_instances(len(keys))
        for key, row in zip(keys, new_rows.tolist()):
            self._rows[key] = row
            self._keys.append(key)
            self._dense_set(key, row)

    def _rows_for_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized instance-key → engine-row map, registering fresh keys."""
        kmin = int(keys.min())
        kmax = int(keys.max())
        if kmin < 0 or kmax >= _DENSE_KEY_LIMIT:
            # out-of-range keys: the dict path, one lookup per event
            rows_of = self._rows
            fresh = [k for k in keys.tolist() if k not in rows_of]
            if fresh:
                self._register(list(dict.fromkeys(fresh)))
            return np.array([rows_of[k] for k in keys.tolist()], dtype=np.int64)
        if kmax >= len(self._dense_rows):
            grown = np.full(
                max(2 * len(self._dense_rows), kmax + 1), -1, dtype=np.int64
            )
            grown[: len(self._dense_rows)] = self._dense_rows
            self._dense_rows = grown
        rows = self._dense_rows[keys]
        if (rows < 0).any():
            self._register(np.unique(keys[rows < 0]).tolist())
            rows = self._dense_rows[keys]
        return rows

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_packed(self, batch: InjectBatchPacked) -> int:
        """Serve one packed batch: zero per-event Python objects.

        Instance keys resolve to kernel rows with one gather; the
        kernel's :meth:`~repro.runtime.fleet.FleetEngine.dispatch_ordered`
        does the rest.
        """
        count = len(batch)
        if count == 0:
            return 0
        rows = self._rows_for_keys(np.asarray(batch.instances, dtype=np.int64))
        self.engine.dispatch_ordered(rows, batch.sources, batch.signatures)
        self.events_served += count
        return count

    def reload(self, reset_stats: bool = True) -> None:
        self.engine.reset_state(reset_stats=reset_stats)

    # ------------------------------------------------------------------
    # Introspection and results
    # ------------------------------------------------------------------
    def stats(self, queue_depth: int = 0) -> ShardStats:
        result = self.engine.result()
        elapsed = time.monotonic() - self._started
        return ShardStats(
            shard=self.shard_id,
            instances=self.engine.instances,
            events=result.stats.events_processed,
            cycles=result.stats.total_cycles,
            queue_depth=queue_depth,
            budget_stops=result.stats.budget_stops,
            throughput_eps=(
                self.events_served / elapsed if elapsed > 0 else 0.0
            ),
            percentiles=result.percentiles(),
        )

    def result(self) -> Tuple[List[int], FleetResult]:
        """The shard's instance keys (row order) and its FleetResult."""
        return list(self._keys), self.engine.result()

    # ------------------------------------------------------------------
    # Migration (supervisor-mediated work stealing)
    # ------------------------------------------------------------------
    @property
    def instance_keys(self) -> List[int]:
        return list(self._keys)

    def export_instance(self, key: int) -> Tuple[List[int], int, int]:
        """Remove ``key`` from this shard, returning its migratable state.

        Only safe once no in-flight events target ``key`` (the
        supervisor drains the inbox before migrating).
        """
        row = self._rows.pop(key)
        self._dense_del(key)
        state = self.engine.export_instance(row)
        moved_from = self.engine.remove_instance(row)
        moved_key = self._keys[moved_from]
        self._keys[row] = moved_key
        self._keys.pop()
        if moved_key != key:
            self._rows[moved_key] = row
            self._dense_set(moved_key, row)
        return state

    def import_instance(
        self, key: int, state: Tuple[Sequence[int], int, int]
    ) -> None:
        """Adopt a migrated instance exported from another shard."""
        if key in self._rows:
            raise ValueError(
                f"instance {key} already lives on shard {self.shard_id}"
            )
        row = self.engine.import_instance(state)
        self._rows[key] = row
        self._keys.append(key)
        self._dense_set(key, row)


class ShardActor:
    """One shard of the fleet: a bounded inbox draining into one core."""

    def __init__(
        self,
        shard_id: int,
        engine: FleetEngine,
        inbox_limit: int = DEFAULT_INBOX_LIMIT,
    ) -> None:
        self.core = ShardCore(shard_id, engine)
        self.shard_id = shard_id
        self.inbox: "asyncio.Queue[_InboxItem]" = asyncio.Queue(
            maxsize=inbox_limit
        )
        self._stopped = False
        #: the kernel's exception, once it raised; later requests fail with it
        self.failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    async def put(self, message: _InboxItem) -> None:
        """Enqueue; suspends the caller while the inbox is full."""
        self._raise_failure(message)
        await self.inbox.put(message)

    def try_put(self, message: _InboxItem) -> bool:
        """Non-blocking enqueue; ``False`` signals overflow (backpressure)."""
        self._raise_failure(message)
        try:
            self.inbox.put_nowait(message)
        except asyncio.QueueFull:
            return False
        return True

    # ------------------------------------------------------------------
    # The actor loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Serve the inbox until a :class:`Shutdown` message arrives.

        Once the kernel has raised, drains fail their control futures
        with :attr:`failure` instead of serving (see :meth:`_fail_batch`).
        """
        while not self._stopped:
            first = await self.inbox.get()
            batch: List[_InboxItem] = [first]
            while True:
                try:
                    batch.append(self.inbox.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                if self.failure is None:
                    self._serve_batch(batch)
                else:
                    self._fail_batch(batch)
            except Exception as error:
                self.failure = error
                self._fail_batch(batch)
            finally:
                for _ in batch:
                    self.inbox.task_done()

    def _raise_failure(self, message: _InboxItem) -> None:
        """After a failure, events fail at once; controls still queue."""
        if self.failure is not None and isinstance(message, InjectBatchPacked):
            raise self.failure

    def _fail_batch(self, batch: Sequence[_InboxItem]) -> None:
        """Fail every control future in ``batch`` with :attr:`failure`; a
        :class:`Shutdown` among them still stops the loop."""
        for item in batch:
            if isinstance(item, InjectBatchPacked):
                continue
            message, future = item
            if not future.done():
                future.set_exception(self.failure)
            if isinstance(message, Shutdown):
                self._stopped = True

    def _serve_batch(self, batch: Sequence[_InboxItem]) -> None:
        """Serve one inbox drain: adaptive coalescing.

        Every packed batch drained in this pass coalesces into ONE
        concatenated vectorized dispatch instead of many small ones —
        the deeper the backlog, the larger (and cheaper per event) the
        rounds.
        """
        packed: List[InjectBatchPacked] = []
        controls: List[_ControlItem] = []
        shutdown: Optional[_ControlItem] = None
        for item in batch:
            if isinstance(item, InjectBatchPacked):
                packed.append(item)
                continue
            message = item[0]
            if isinstance(message, Shutdown):
                shutdown = item
                if not message.drain:
                    packed = []
                    break
            else:
                controls.append(item)
        if packed:
            self.core.serve_packed(InjectBatchPacked.concat(packed))
        for message, future in controls:
            if isinstance(message, SnapshotRequest):
                self._resolve(future, self.stats())
            elif isinstance(message, Reload):
                self.core.reload(reset_stats=message.reset_stats)
                self._resolve(future, True)
        if shutdown is not None:
            self._stopped = True
            self._resolve(shutdown[1], self.core.result())

    @staticmethod
    def _resolve(future: "asyncio.Future", value: object) -> None:
        if not future.done():
            future.set_result(value)

    # ------------------------------------------------------------------
    # Delegation
    # ------------------------------------------------------------------
    @property
    def events_served(self) -> int:
        return self.core.events_served

    @property
    def instance_keys(self) -> List[int]:
        return self.core.instance_keys

    def stats(self) -> ShardStats:
        return self.core.stats(queue_depth=self.inbox.qsize())

    def export_instance(self, key: int) -> Tuple[List[int], int, int]:
        return self.core.export_instance(key)

    def import_instance(
        self, key: int, state: Tuple[Sequence[int], int, int]
    ) -> None:
        self.core.import_instance(key, state)
