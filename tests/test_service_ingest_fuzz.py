"""Fuzzing whole ingest sessions: bad lines are answered, never applied.

Each hypothesis example drives one socket connection through a session
that interleaves the valid ``inject_batch`` lines of a small ATM fleet
(always all of them, in order) with lines that must be refused: events
that are valid JSON but break the wire decoder's field rules or name an
unknown source transition, single ``inject`` messages with the same
faults, and garbage lines.  Snapshots are sprinkled in between.

Every refused line must get a not-ok ``Ack`` and leave the connection
serving; every snapshot must count exactly the valid events sent so
far (so no event of a refused line was applied, not even the valid
ones before its bad event); and the drained result must equal the
one-shot run of the valid injects alone.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net, make_fleet_testbench
from repro.petrinet.exceptions import NotEnabledError
from repro.runtime import FleetSimulator, ModuleAssignment
from repro.service import (
    WIRE_SCHEMA,
    Ack,
    FleetSupervisor,
    IngestServer,
    InjectBatch,
    ProtocolError,
    SnapshotReply,
    SnapshotRequest,
    decode_message,
    encode_message,
    events_to_injects,
)

SESSIONS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NET = build_atm_server_net()
ASSIGNMENT = ModuleAssignment.from_groups(MODULE_PARTITION)
STREAMS = make_fleet_testbench(8, cells=4, seed=41)
INJECTS = events_to_injects(STREAMS)
ONE_SHOT = FleetSimulator(NET, ASSIGNMENT).run(STREAMS)
CHUNK = 16
VALID_LINES = [
    encode_message(InjectBatch(events=tuple(INJECTS[lo : lo + CHUNK]))).encode()
    for lo in range(0, len(INJECTS), CHUNK)
]
VALID_COUNTS = [len(json.loads(line)["events"]) for line in VALID_LINES]

#: One field of one event set to a value the decoder or the supervisor
#: must refuse (``None`` as the value deletes the field).
FAULTS = [
    ("source", "t_no_such_transition"),
    ("instance", None),
    ("instance", "null"),
    ("instance", 1.7),
    ("instance", "5"),
    ("instance", True),
    ("instance", 2**63),
    ("instance", -(2**63) - 1),
    ("source", None),
    ("source", 5),
    ("source", ["t_cell"]),
    ("time", "0"),
    ("time", False),
    ("time", "null"),
    ("choices", [1, 2]),
    ("choices", "p_timer_state"),
    ("choices", {"p_timer_state": 1}),
    ("choices", {"p_timer_state": None}),
    ("priority", 3),
]


def faulty_event(event, field, value):
    event = dict(event)
    if value is None:
        del event[field]
    else:
        event[field] = None if value == "null" else value
    return event


@st.composite
def bad_lines(draw):
    """A valid-JSON line the service must refuse whole."""
    batch = json.loads(VALID_LINES[draw(st.integers(0, len(VALID_LINES) - 1))])
    events = batch["events"]
    position = draw(st.integers(0, len(events) - 1))
    field, value = draw(st.sampled_from(FAULTS))
    bad = faulty_event(events[position], field, value)
    if draw(st.booleans()):
        events[position] = bad
        return json.dumps(batch).encode()
    return json.dumps({"schema": WIRE_SCHEMA, "type": "inject", **bad}).encode()


garbage_lines = st.one_of(
    st.binary(min_size=1, max_size=40),
    st.text(min_size=1, max_size=40).map(str.encode),
    st.sampled_from([b"{}", b"[1, 2]", b'{"schema": "repro-qss.service/1"}', b"null"]),
).filter(lambda line: b"\n" not in line and line.strip())

#: Between two valid lines: any mix of refused lines and snapshots.
extras = st.lists(
    st.one_of(
        bad_lines().map(lambda line: ("bad", line)),
        garbage_lines.map(lambda line: ("bad", line)),
        st.just(("snapshot", None)),
    ),
    max_size=3,
)


@st.composite
def sessions(draw):
    """Every valid line in order, with extras before, between and after."""
    steps = draw(extras)
    for line in VALID_LINES:
        steps.append(("valid", line))
        steps.extend(draw(extras))
    return steps


async def run_session(steps):
    supervisor = FleetSupervisor(NET, ASSIGNMENT, shards=2)
    await supervisor.start()
    server = IngestServer(supervisor, port=0)
    host, port = await server.start()
    reader, writer = await asyncio.open_connection(host, port)

    async def answer():
        line = await asyncio.wait_for(reader.readline(), 10)
        assert line, "the service closed the connection"
        return decode_message(line)

    try:
        served = 0
        snapshots = 0
        for kind, line in steps + [("snapshot", None)]:
            if kind == "snapshot":
                snapshots += 1
                line = encode_message(SnapshotRequest(request_id=snapshots)).encode()
            writer.write(line + b"\n")
            await writer.drain()
            if kind == "valid":
                served += len(json.loads(line)["events"])
            elif kind == "bad":
                reply = await answer()
                assert isinstance(reply, Ack) and not reply.ok, (line, reply)
                assert reply.error
            else:
                reply = await answer()
                assert isinstance(reply, SnapshotReply), reply
                assert reply.request_id == snapshots
                assert reply.events == served
        assert served == len(INJECTS)
    finally:
        writer.close()
        await writer.wait_closed()
        await server.stop()
    return await supervisor.stop(drain=True)


@SESSIONS
@given(sessions())
def test_refused_lines_are_answered_and_never_applied(steps):
    result = asyncio.run(run_session(steps))
    assert asdict(result.stats) == asdict(ONE_SHOT.stats)
    assert np.array_equal(result.instance_cycles, ONE_SHOT.instance_cycles)
    assert np.array_equal(result.instance_events, ONE_SHOT.instance_events)


def test_every_fault_is_refused_by_the_decoder_or_the_supervisor():
    """Each FAULTS entry is live: it fails one of the two gates alone."""
    event = json.loads(VALID_LINES[0])["events"][0]
    supervisor = FleetSupervisor(NET, ASSIGNMENT)
    for field, value in FAULTS:
        line = json.dumps(
            {"schema": WIRE_SCHEMA, "type": "inject_batch",
             "events": [faulty_event(event, field, value)]}
        )
        try:
            supervisor.pack(decode_message(line).events)
        except (ProtocolError, NotEnabledError):
            continue
        raise AssertionError(f"{field}={value!r} was accepted")


def test_a_serving_failure_is_answered_and_the_connection_survives(monkeypatch):
    async def go():
        supervisor = FleetSupervisor(NET, ASSIGNMENT, shards=1)
        await supervisor.start()
        server = IngestServer(supervisor, port=0)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)

        async def broken(message):
            raise RuntimeError("shard on fire")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(supervisor, "inject", broken)
                writer.write(VALID_LINES[0] + b"\n")
                await writer.drain()
                reply = decode_message(await asyncio.wait_for(reader.readline(), 10))
            assert isinstance(reply, Ack) and not reply.ok
            assert reply.error == "RuntimeError: shard on fire"
            writer.write(VALID_LINES[0] + b"\n")
            writer.write(encode_message(SnapshotRequest(request_id=4)).encode() + b"\n")
            await writer.drain()
            reply = decode_message(await asyncio.wait_for(reader.readline(), 10))
            assert isinstance(reply, SnapshotReply) and reply.request_id == 4
            assert reply.events == VALID_COUNTS[0]
        finally:
            writer.close()
            await writer.wait_closed()
            await server.stop()
            await supervisor.stop()

    asyncio.run(go())
