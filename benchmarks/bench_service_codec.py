"""Service codec microbench: wire lines vs packed columns vs binary frames.

The service's 4x live-path gap was codec cost, not kernel cost — so
this bench pins where each representation stands:

- **wire codec** (`encode_message`/`decode_message`): one JSON object
  per message, what socket clients speak.  Priced per event via
  `InjectBatch` lines of `WIRE_BATCH` events; a decoded line keeps its
  events as `InjectColumns`.
- **wire ingest** (`decode_message` + `FleetSupervisor.pack`): wire
  line to `InjectBatchPacked` on a warm intern table — what the socket
  server pays per event before routing, next to ``wire_decode`` and
  ``pack_warm``.
- **packed batches** (`FleetSupervisor.pack`): string events interned
  once at the ingest boundary into int64 id columns; ``unpack`` here is
  the shard-side consumption cost (row gather + round grouping) —
  measured as array slicing + concat, the only touch a packed batch
  gets between boundary and kernel.
- **binary frames** (`encode_frame_packed`/`decode_frame`): what the
  process-backend pipes carry; decode is ``np.frombuffer`` zero-copy.

Rows land in ``BENCH_service_codec.json``; ``--smoke`` (CI) also
appends one entry to the committed
``BENCH_service_codec.history.json``.  Informational — no floors; the
enforced end-to-end contract lives in ``bench_serve.py``.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from bench_io import append_history, record_bench_rows

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.runtime import ModuleAssignment
from repro.service import (
    FleetSupervisor,
    InjectBatch,
    InjectBatchPacked,
    decode_frame,
    decode_message,
    encode_frame_packed,
    encode_message,
    events_to_injects,
)

#: Workload sizes: full bench vs CI smoke.
BENCH_INSTANCES, BENCH_CELLS = 2_000, 25
SMOKE_INSTANCES, SMOKE_CELLS = 200, 5

#: Events per wire-codec line (the `ServiceClient.inject_batch` shape).
WIRE_BATCH = 1024


def _events(instances: int, cells: int):
    build_atm_server_net()  # import-side effects parity with bench_serve
    streams = make_fleet_testbench(instances, cells=cells, seed=2026)
    return events_to_injects(streams)


def _supervisor() -> FleetSupervisor:
    net = build_atm_server_net()
    assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
    return FleetSupervisor(net, assignment)


def _timed(label: str, events: int, fn) -> dict:
    started = time.perf_counter()
    fn()
    seconds = time.perf_counter() - started
    return {
        "codec": label,
        "events": events,
        "seconds": seconds,
        "events_per_second": events / seconds if seconds > 0 else 0.0,
    }


def run(instances: int, cells: int) -> list:
    injects = _events(instances, cells)
    n = len(injects)
    rows = []

    # wire codec: encode then decode every batch line
    batches = [
        InjectBatch(events=tuple(injects[lo : lo + WIRE_BATCH]))
        for lo in range(0, n, WIRE_BATCH)
    ]
    lines: list = []
    rows.append(
        _timed(
            "wire_encode", n, lambda: lines.extend(map(encode_message, batches))
        )
    )
    rows.append(_timed("wire_decode", n, lambda: list(map(decode_message, lines))))

    # packed: the ingest-boundary intern (cold = interning tables fill,
    # warm = steady-state dict hits), then the shard-side consumption
    supervisor = _supervisor()
    supervisor.pack(injects[: min(n, 1024)])  # prime the intern tables
    packed_box: list = []
    rows.append(
        _timed(
            "pack_warm", n, lambda: packed_box.append(supervisor.pack(injects))
        )
    )
    rows.append(
        _timed(
            "wire_ingest",
            n,
            lambda: [supervisor.pack(decode_message(line).events) for line in lines],
        )
    )
    packed = packed_box[0]
    chunks = [
        packed.take(slice(lo, lo + WIRE_BATCH)) for lo in range(0, n, WIRE_BATCH)
    ]
    rows.append(
        _timed(
            "packed_unpack",
            n,
            lambda: np.concatenate(
                [InjectBatchPacked.concat(chunks).instances]
            ),
        )
    )

    # binary frames: the process-backend pipe representation
    frames: list = []
    rows.append(
        _timed(
            "frame_encode",
            n,
            lambda: frames.extend(encode_frame_packed(c) for c in chunks),
        )
    )
    rows.append(
        _timed("frame_decode", n, lambda: list(map(decode_frame, frames)))
    )

    for row in rows:
        row["instances"] = instances
    return rows


def _report(rows: list) -> None:
    for row in rows:
        print(
            f"{row['codec']:>14}: {row['events']} events in "
            f"{row['seconds']:.4f}s -> {row['events_per_second']:,.0f} "
            f"events/s"
        )


def _smoke() -> int:
    rows = run(SMOKE_INSTANCES, SMOKE_CELLS)
    _report(rows)
    path = record_bench_rows("service_codec", rows)
    print(f"smoke service_codec: rows recorded -> {path}")
    entry = {
        "instances": SMOKE_INSTANCES,
        "events": rows[0]["events"],
        "cpu_count": os.cpu_count(),
        **{row["codec"]: row["events_per_second"] for row in rows},
    }
    history = append_history("service_codec", entry)
    print(f"smoke service_codec: history appended -> {history}")
    return 0


def main() -> int:
    rows = run(BENCH_INSTANCES, BENCH_CELLS)
    _report(rows)
    path = record_bench_rows("service_codec", rows)
    print(f"service_codec: rows recorded -> {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_smoke() if "--smoke" in sys.argv else main())
