"""Socket load generator for the ``atm_socket`` workload.

Runs as its own process so the serving process's heap holds only what
the program allocates.  It builds the ATM fleet from ``--seed``,
computes (or loads) the memo-free oracle result, LDJSON-encodes every
line up front, prints one ``ready`` JSON line, then reads the server's
port from stdin and drives one connection with two threads: this one
sends, a reader thread timestamps every reply.

The session is a sequence of rounds, each a paced burst then a flood
pass, until ``--seconds`` have gone by (at least two rounds, so a
traced run can pair an untraced round with a traced one):

* Paced burst: after a ``Reload``, the first ``PACED_BURST_LINES``
  lines of ``PACED_LINE_EVENTS`` events, open-loop at ``PACED_RATE``
  events/s, each followed by a ``SnapshotRequest``.  A probe's latency runs from its
  line's scheduled send time to its snapshot reply; how late the
  sender ran is reported too.
* Flood pass: after a ``Reload``, the whole fleet as ``InjectBatch``
  lines of ``ingest.BATCH_CHUNK`` events, as fast as TCP backpressure
  allows, then a ``SnapshotRequest``; the window runs from the first
  byte sent to the snapshot reply.

Interleaving the two spreads both phases over the whole run, so a
stall of the machine lands in one round rather than in all of one
phase.  Between rounds the generator prints ``idle`` and waits for a
line on stdin, so the server can sample its set-up time while nothing
is in flight.  The last flood pass is not reloaded: the server's drained
result is one whole pass over the fleet.

The last stdout line is the report: every round's timings (in the
shared ``time.perf_counter`` clock, CLOCK_MONOTONIC on Linux, so the
server can line spans up with the flood windows), every snapshot's
counts, not-ok acks, and the oracle document.

Usage (the benchmark starts it; by hand it waits for a port on stdin):
``python3 perfbench/loadgen.py --seed 1 --instances 1000 --seconds 10``
"""

from __future__ import annotations

import argparse
import gc
import json
import queue
import socket
import sys
import threading
import time

from common import (
    ATM_CELLS,
    PACED_BURST_LINES,
    PACED_LINE_EVENTS,
    PACED_RATE,
    cached_oracle,
    memo_free_oracle,
    stream_digest,
    use_checkout_sources,
)

#: Longest the generator waits for any one reply.
REPLY_TIMEOUT = 120.0
#: Request id of every flood barrier; paced probe ``k`` uses ``PACED_IDS + k``.
FLOOD_ID = 2
PACED_IDS = 1_000_000
#: Fewest rounds in a session (see the module docstring).
MIN_ROUNDS = 2


class Connection:
    """One socket, a reply-reader thread and a FIFO of timestamped replies."""

    def __init__(self, port: int) -> None:
        from repro.service import decode_message

        self._decode = decode_message
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.replies: "queue.Queue" = queue.Queue()
        self.bad_acks = 0
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        with self.sock.makefile("rb") as stream:
            for line in stream:
                self.replies.put((time.perf_counter(), line))
        self.replies.put((time.perf_counter(), None))

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self):
        """The next reply other than a not-ok ``Ack`` (those are counted)."""
        from repro.service import Ack

        while True:
            received, line = self.replies.get(timeout=REPLY_TIMEOUT)
            if line is None:
                raise ConnectionError("server closed the connection")
            message = self._decode(line.strip())
            if isinstance(message, Ack) and not message.ok:
                self.bad_acks += 1
                continue
            return received, message

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.join(timeout=REPLY_TIMEOUT)
        self.sock.close()


def encode_lines(injects, chunk: int):
    from repro.service import InjectBatch, encode_message

    return [
        encode_message(InjectBatch(events=tuple(injects[lo : lo + chunk]))).encode()
        + b"\n"
        for lo in range(0, len(injects), chunk)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instances", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    use_checkout_sources()

    from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
    from repro.runtime import ModuleAssignment
    from repro.service import (
        Reload,
        Shutdown,
        SnapshotRequest,
        encode_message,
        events_to_injects,
    )
    from repro.service.ingest import BATCH_CHUNK

    def line(message) -> bytes:
        return encode_message(message).encode() + b"\n"

    net = build_atm_server_net()
    assignment = ModuleAssignment.from_groups(MODULE_PARTITION)
    streams = make_fleet_testbench(args.instances, cells=ATM_CELLS, seed=args.seed)
    digest = stream_digest(streams)
    oracle = cached_oracle("atm", digest, memo_free_oracle, net, assignment, streams)
    injects = events_to_injects(streams)
    total = len(injects)
    flood = b"".join(encode_lines(injects, BATCH_CHUNK)) + line(
        SnapshotRequest(request_id=FLOOD_ID)
    )
    reload = line(Reload(reset_stats=True))
    # paced probe k: its line, then the snapshot request its reply answers
    paced = [
        data + line(SnapshotRequest(request_id=PACED_IDS + k))
        for k, data in enumerate(
            encode_lines(injects[: PACED_BURST_LINES * PACED_LINE_EVENTS],
                         PACED_LINE_EVENTS)
        )
    ]
    paced_counts = [
        min(total, (k + 1) * PACED_LINE_EVENTS) for k in range(len(paced))
    ]
    del streams, injects
    gc.collect()
    gc.freeze()
    print(
        json.dumps({"ready": True, "events": total, "input_sha256": digest}),
        flush=True,
    )

    port = int(sys.stdin.readline())
    connection = Connection(port)
    rounds = []
    try:
        started = time.perf_counter()
        while True:
            round_ = paced_burst(
                connection, paced, paced_counts, PACED_LINE_EVENTS / PACED_RATE
            )
            connection.send(reload)
            connection.reply()
            round_["flood"] = flood_pass(connection, flood)
            rounds.append(round_)
            if (
                len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - started >= args.seconds
            ):
                break
            # the server is idle: let it take its set-up samples, then go on
            print("idle", flush=True)
            sys.stdin.readline()
            connection.send(reload)
            connection.reply()
        # no Reload after the last flood pass: the drained result is one
        # whole pass over the fleet, which the oracle describes
        connection.send(line(Shutdown(drain=True, request_id=1)))
        connection.reply()
    finally:
        connection.close()
    print(json.dumps({"rounds": rounds, "oracle": oracle}), flush=True)
    return 0


def paced_burst(connection, lines, counts, interval):
    """Send ``lines`` open-loop, one per ``interval``; time each probe."""
    bad_before = connection.bad_acks
    first_due = time.perf_counter() + 0.05
    probes = []
    for k, data in enumerate(lines):
        due = first_due + k * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        connection.send(data)
        probes.append({"due": due, "sent": sent, "events_sent": counts[k]})
    for probe in probes:
        received, reply = connection.reply()
        probe.update(
            reply=received,
            snapshot_events=reply.events,
            snapshot_cycles=reply.cycles,
        )
    return {"probes": probes, "paced_bad_acks": connection.bad_acks - bad_before}


def flood_pass(connection, blob):
    """Send the whole fleet and its barrier as fast as backpressure allows."""
    bad_before = connection.bad_acks
    begin = time.perf_counter()
    connection.send(blob)
    end, reply = connection.reply()
    return {
        "start": begin,
        "end": end,
        "snapshot_events": reply.events,
        "snapshot_cycles": reply.cycles,
        "bad_acks": connection.bad_acks - bad_before,
    }


if __name__ == "__main__":
    sys.exit(main())
