"""Differential pins for the columnar LDJSON ingest.

A decoded ``inject_batch`` line keeps its events as columns
(:class:`~repro.service.InjectColumns`), and ``FleetSupervisor.pack``
interns those columns straight into ``InjectBatchPacked`` without
building an ``InjectEvent`` per event.  These tests hold that path to
the object path it replaced, on the ATM, router and heating fleets,
with lines written the way different clients write them: choice
objects whose keys arrive in shuffled order (so the signature table's
insertion-order cache sees different orders of one resolution), empty
or missing ``choices``, a missing ``time`` and shuffled field order.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
from dataclasses import asdict

import numpy as np
import pytest

from repro.apps import atm, heating, router
from repro.runtime import FleetSimulator, ModuleAssignment
from repro.runtime.events import Event
from repro.service import (
    WIRE_SCHEMA,
    FleetSupervisor,
    IngestServer,
    InjectBatch,
    InjectColumns,
    SnapshotReply,
    SnapshotRequest,
    decode_message,
    encode_message,
    events_to_injects,
)

CASES = {
    "atm": (
        atm.build_atm_server_net,
        atm.MODULE_PARTITION,
        lambda n, e, s: atm.make_fleet_testbench(n, cells=e, seed=s),
    ),
    "router": (
        router.build_router_net,
        router.MODULE_PARTITION,
        lambda n, e, s: router.make_fleet_testbench(n, packets=e, seed=s),
    ),
    "heating": (
        heating.build_heating_net,
        heating.MODULE_PARTITION,
        lambda n, e, s: heating.make_fleet_testbench(n, samples=e, seed=s),
    ),
}

#: Events per wire line: small, so every case spans several lines.
CHUNK = 37


def fleet_case(name, instances=12, events=6, seed=23):
    """The case's fleet, with every fifth event resolving no choice."""
    build, partition, bench = CASES[name]
    net = build()
    assignment = ModuleAssignment.from_groups(partition)
    streams = [
        [
            Event(event.time, event.source, {} if k % 5 == 3 else dict(event.choices))
            for k, event in enumerate(stream)
        ]
        for stream in bench(instances, events, seed)
    ]
    # the served result depends on per-instance order only, so zeroing
    # some inject times (to send them without ``time``) changes nothing
    injects = [
        dataclasses.replace(inject, time=0.0) if j % 7 == 2 else inject
        for j, inject in enumerate(events_to_injects(streams))
    ]
    return net, assignment, streams, injects


def wire_lines(injects, seed):
    """Encode ``injects`` as ``inject_batch`` lines of ``CHUNK`` events.

    Returns the lines and how many choice objects were sent in an order
    other than the inject's own.
    """
    rng = random.Random(seed)
    lines, reordered = [], 0
    for lo in range(0, len(injects), CHUNK):
        events = []
        for inject in injects[lo : lo + CHUNK]:
            items = list(inject.choices.items())
            rng.shuffle(items)
            reordered += items != list(inject.choices.items())
            event = {"instance": inject.instance, "source": inject.source}
            if items or rng.random() < 0.5:
                event["choices"] = dict(items)
            if inject.time != 0 or rng.random() < 0.5:
                event["time"] = inject.time
            fields = list(event)
            rng.shuffle(fields)
            events.append({field: event[field] for field in fields})
        line = {"schema": WIRE_SCHEMA, "type": "inject_batch", "events": events}
        lines.append(json.dumps(line).encode())
    return lines, reordered


def chunks(injects):
    return [tuple(injects[lo : lo + CHUNK]) for lo in range(0, len(injects), CHUNK)]


def assert_byte_identical(expected, actual):
    assert asdict(expected.stats) == asdict(actual.stats)
    for name in ("instance_cycles", "instance_events", "instance_ticks"):
        mine, theirs = getattr(expected, name), getattr(actual, name)
        assert (mine is None) == (theirs is None), name
        if mine is not None:
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_lines_exercise_every_wire_variant(name):
    _, _, _, injects = fleet_case(name)
    lines, reordered = wire_lines(injects, seed=1)
    events = [e for line in lines for e in json.loads(line)["events"]]
    assert reordered > 0
    assert any("choices" not in e for e in events)
    assert any(e.get("choices") == {} for e in events)
    assert any("time" not in e for e in events)


@pytest.mark.parametrize("name", sorted(CASES))
def test_decoded_batch_equals_the_object_batch(name):
    _, _, _, injects = fleet_case(name)
    lines, _ = wire_lines(injects, seed=2)
    for line, chunk in zip(lines, chunks(injects)):
        decoded = decode_message(line)
        assert isinstance(decoded.events, InjectColumns)
        assert decoded == InjectBatch(events=chunk)
        assert InjectBatch(events=chunk) == decoded
        assert tuple(decoded.events) == chunk
        assert decoded.events[1:-1] == chunk[1:-1]
        assert decoded.events[-1] == chunk[-1]
        assert decode_message(encode_message(decoded)) == decoded


@pytest.mark.parametrize("name", sorted(CASES))
def test_pack_of_decoded_columns_equals_pack_of_objects(name):
    net, assignment, _, injects = fleet_case(name)
    lines, _ = wire_lines(injects, seed=3)
    # two fresh tables intern in the same canonical order, so the ids
    # agree although the raw choice orders differ
    columnar = FleetSupervisor(net, assignment)
    objects = FleetSupervisor(net, assignment)
    for line, chunk in zip(lines, chunks(injects)):
        got = columnar.pack(decode_message(line).events)
        want = objects.pack(chunk)
        for column in ("instances", "sources", "signatures"):
            mine, theirs = getattr(got, column), getattr(want, column)
            assert mine.dtype == theirs.dtype == np.int64
            assert np.array_equal(mine, theirs), column


@pytest.mark.parametrize("name", sorted(CASES))
def test_socket_served_result_is_byte_identical_to_one_shot(name, monkeypatch):
    net, assignment, streams, injects = fleet_case(name)
    lines, _ = wire_lines(injects, seed=4)
    expected = FleetSimulator(net, assignment).run(streams)
    # the socket path must never build an InjectEvent per event
    built = []
    for attr in ("__getitem__", "__iter__"):
        original = getattr(InjectColumns, attr)

        def spy(self, *args, _original=original):
            built.append(len(self))
            return _original(self, *args)

        monkeypatch.setattr(InjectColumns, attr, spy)

    async def go():
        supervisor = FleetSupervisor(net, assignment, shards=2)
        await supervisor.start()
        server = IngestServer(supervisor, port=0)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"\n".join(lines) + b"\n")
            writer.write(encode_message(SnapshotRequest(request_id=3)).encode() + b"\n")
            await writer.drain()
            reply = decode_message(await asyncio.wait_for(reader.readline(), 30))
            assert isinstance(reply, SnapshotReply) and reply.request_id == 3
            assert reply.events == len(injects)
        finally:
            writer.close()
            await writer.wait_closed()
            await server.stop()
        return await supervisor.stop(drain=True)

    assert_byte_identical(expected, asyncio.run(go()))
    assert built == []
