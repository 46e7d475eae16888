"""Fuzzing the service decoders: every input decodes or is a ProtocolError.

``decode_message`` (the LDJSON wire codec) and ``decode_frame`` (the
binary pipe codec of the process shards) sit on trust boundaries, so
they must be total: whatever bytes arrive, the caller gets a message or
a :class:`~repro.service.ProtocolError` it knows how to answer — never a
``UnicodeDecodeError``, ``OverflowError`` or ``UnpicklingError`` that
escapes the handler.  The ingest test pins what that buys: a non-UTF-8
line is answered with a not-ok Ack and the connection keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.atm import MODULE_PARTITION, build_atm_server_net
from repro.runtime import ModuleAssignment
from repro.service import (
    FRAME_CONTROL,
    FRAME_PACKED,
    FRAME_RESULT,
    WIRE_SCHEMA,
    Ack,
    FleetSupervisor,
    IngestServer,
    InjectBatchPacked,
    ProtocolError,
    SnapshotReply,
    SnapshotRequest,
    decode_frame,
    decode_message,
    encode_frame_packed,
    encode_frame_result,
    encode_message,
)
from repro.service.messages import MESSAGE_TYPES

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MAGIC = b"RQF1"

#: JSON values of any shape, nested a few levels deep.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Field names the message types really have, plus arbitrary ones.
field_names = st.sampled_from(
    sorted(
        {
            name
            for cls in MESSAGE_TYPES.values()
            for name in cls.__dataclass_fields__
        }
    )
) | st.text(max_size=8)


@st.composite
def wire_payloads(draw):
    """A JSON object with a valid schema and type and random fields."""
    payload = draw(st.dictionaries(field_names, json_values, max_size=6))
    payload["schema"] = WIRE_SCHEMA
    payload["type"] = draw(st.sampled_from(sorted(MESSAGE_TYPES)))
    return json.dumps(payload)


def decodes_or_protocol_error(decode, data):
    """Run ``decode``; anything but a result or ProtocolError fails."""
    try:
        return decode(data)
    except ProtocolError:
        return None


def valid_packed_frame() -> bytes:
    batch = InjectBatchPacked(
        instances=np.array([0, 7, 3], dtype=np.int64),
        sources=np.array([1, 1, 0], dtype=np.int64),
        signatures=np.array([0, 2, 1], dtype=np.int64),
    )
    return encode_frame_packed(
        batch, sig_base=1, sig_defs=[(("p1", "t2"),), (("p1", "t3"),)]
    )


def packed_frame_with_header(header: str) -> bytes:
    raw = header.encode("utf-8")
    return MAGIC + bytes([FRAME_PACKED]) + struct.pack("<I", len(raw)) + raw


class TestDecodeMessage:
    @FUZZ
    @given(st.text())
    def test_any_text(self, line):
        decodes_or_protocol_error(decode_message, line)

    @FUZZ
    @given(st.binary())
    @example(b"\xe8m")
    def test_any_bytes(self, line):
        decodes_or_protocol_error(decode_message, line)

    @FUZZ
    @given(wire_payloads())
    @example(  # an event that is a list of field names, not an object
        json.dumps(
            {"schema": WIRE_SCHEMA, "type": "inject_batch", "events": [["source"]]}
        )
    )
    def test_well_typed_envelopes_with_random_fields(self, line):
        decodes_or_protocol_error(decode_message, line)
        decodes_or_protocol_error(decode_message, line.encode("utf-8"))

    def test_non_utf8_bytes_are_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message(b"\xe8m")


class TestDecodeFrame:
    @FUZZ
    @given(st.binary())
    def test_any_bytes(self, data):
        decodes_or_protocol_error(decode_frame, data)

    @FUZZ
    @given(st.sampled_from([FRAME_CONTROL, FRAME_PACKED, 3, 255]), st.binary())
    def test_any_body_behind_the_magic(self, kind, body):
        # result frames are pickles, and only bytes this program wrote
        # are unpickled: they get the truncation test below instead
        decodes_or_protocol_error(decode_frame, MAGIC + bytes([kind]) + body)

    def test_truncated_and_garbage_result_frames(self):
        frame = encode_frame_result(([0, 1], {"cycles": [3, 4]}))
        for cut in range(5, len(frame)):
            decodes_or_protocol_error(decode_frame, frame[:cut])
        with pytest.raises(ProtocolError, match="bad result frame"):
            decode_frame(MAGIC + bytes([FRAME_RESULT]) + b"garbage")

    @FUZZ
    @given(st.data())
    def test_truncated_and_mutated_packed_frames(self, data):
        frame = bytearray(valid_packed_frame())
        cut = data.draw(st.integers(0, len(frame)), label="cut")
        edits = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(frame) - 1), st.integers(0, 255)),
                max_size=4,
            ),
            label="edits",
        )
        for index, value in edits:
            frame[index] = value
        frame[4] = FRAME_PACKED  # mutate the packed frame, not its kind
        decoded = decodes_or_protocol_error(decode_frame, bytes(frame[:cut]))
        if decoded is not None and decoded[0] == FRAME_PACKED:
            batch, _sig_base, _sig_defs = decoded[1]
            assert len(batch.instances) == len(batch.sources) == len(batch)
            assert len(batch.signatures) == len(batch)

    @FUZZ
    @given(
        st.sampled_from(
            ["Infinity", "-Infinity", "NaN", "-1", "1e400", "3.5", "true", "[]"]
        ),
        st.sampled_from(["n", "sig_base"]),
    )
    @example("Infinity", "n")
    def test_packed_header_numbers(self, value, key):
        header = {"n": "0", "sig_base": "0", "sig_defs": "[]"}
        header[key] = value
        text = "{" + ",".join(f'"{k}":{v}' for k, v in header.items()) + "}"
        decodes_or_protocol_error(decode_frame, packed_frame_with_header(text))

    def test_the_valid_frame_still_decodes(self):
        kind, (batch, sig_base, sig_defs) = decode_frame(valid_packed_frame())
        assert kind == FRAME_PACKED and sig_base == 1
        assert batch.instances.tolist() == [0, 7, 3]
        assert sig_defs == [(("p1", "t2"),), (("p1", "t3"),)]


def test_ingest_answers_a_non_utf8_line_and_keeps_serving():
    net = build_atm_server_net()
    assignment = ModuleAssignment.from_groups(MODULE_PARTITION)

    async def go():
        supervisor = FleetSupervisor(net, assignment, shards=1)
        await supervisor.start()
        server = IngestServer(supervisor, port=0)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"\xe8m\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 5)
            reply = decode_message(line.strip())
            assert isinstance(reply, Ack) and not reply.ok
            writer.write(
                encode_message(SnapshotRequest(request_id=9)).encode() + b"\n"
            )
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 5)
            reply = decode_message(line.strip())
            assert isinstance(reply, SnapshotReply) and reply.request_id == 9
        finally:
            writer.close()
            await writer.wait_closed()
            await server.stop()
            await supervisor.stop()

    asyncio.run(go())
