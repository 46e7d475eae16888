"""The always-on fleet service: actor-style serving of net instances.

Layered on the :class:`~repro.runtime.fleet.FleetEngine` stepping
kernel:

- :mod:`~repro.service.messages` — frozen typed messages + the
  versioned JSON wire codec every endpoint speaks (a decoded inject
  batch keeps its events as :class:`InjectColumns`), plus the internal
  zero-copy representations: :class:`InjectBatchPacked` (pre-interned
  int64 id columns) and the binary frame codec the process-backed
  shards speak over their pipes.
- :mod:`~repro.service.shard` — the shard actor: a bounded inbox of
  packed batches draining into one kernel's ``dispatch_ordered``.
- :mod:`~repro.service.supervisor` — pack-at-the-boundary, hash-sharded
  routing, async or process shard backends (a dead worker fails with
  :class:`ShardFailed`), snapshots, work stealing, drain-and-stop.
- :mod:`~repro.service.ingest` — the LDJSON socket server and the
  socket/in-process clients.
- :mod:`~repro.service.telemetry` — versioned JSON-lines telemetry.

``repro-qss serve --shards/--listen/--duration/--telemetry`` is the
CLI front end; ``tests/test_service_differential.py`` pins service
results equal to the one-shot batch path.
"""

from .ingest import IngestServer, LocalClient, ServiceClient, events_to_injects
from .messages import (
    FRAME_CONTROL,
    FRAME_PACKED,
    FRAME_RESULT,
    FRAME_SCHEMA,
    WIRE_SCHEMA,
    Ack,
    InjectBatch,
    InjectBatchPacked,
    InjectColumns,
    InjectEvent,
    ProtocolError,
    Reload,
    ShardStats,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    decode_frame,
    decode_message,
    encode_frame_control,
    encode_frame_packed,
    encode_frame_result,
    encode_message,
)
from .shard import DEFAULT_INBOX_LIMIT, ShardActor, ShardCore
from .supervisor import (
    SERVICE_BACKENDS,
    FleetSupervisor,
    ShardFailed,
    validate_backend,
)
from .telemetry import TELEMETRY_SCHEMA, TelemetryWriter, validate_telemetry_record

__all__ = [
    "WIRE_SCHEMA",
    "FRAME_SCHEMA",
    "FRAME_CONTROL",
    "FRAME_PACKED",
    "FRAME_RESULT",
    "TELEMETRY_SCHEMA",
    "SERVICE_BACKENDS",
    "DEFAULT_INBOX_LIMIT",
    "Ack",
    "InjectBatch",
    "InjectBatchPacked",
    "InjectColumns",
    "InjectEvent",
    "ProtocolError",
    "Reload",
    "ShardStats",
    "Shutdown",
    "SnapshotReply",
    "SnapshotRequest",
    "decode_message",
    "encode_message",
    "decode_frame",
    "encode_frame_control",
    "encode_frame_packed",
    "encode_frame_result",
    "FleetSupervisor",
    "ShardFailed",
    "validate_backend",
    "ShardActor",
    "ShardCore",
    "IngestServer",
    "ServiceClient",
    "LocalClient",
    "events_to_injects",
    "TelemetryWriter",
    "validate_telemetry_record",
]
