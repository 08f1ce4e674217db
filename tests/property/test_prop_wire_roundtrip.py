"""Property: ``decode(encode(x)) == x`` for every frame kind and codec.

The wire contract both codecs must honor: whatever a peer encodes, the
counterpart decoder returns the identical value — JSON frames, binary
ingest/ack/JSON-envelope frames, and the error transport (which must
preserve exception ``args`` *structurally*, not through ``str()``, so
KeyError-style reprs never re-quote across hops).  The binary cases
also pin the asymmetric pair: a payload encoded with the plain JSON
codec and the same payload shipped through the binary JSON envelope
must decode identically, which is what lets a connection switch codecs
mid-stream during the hello handshake without re-encoding anything.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CapacityError,
    CheckpointError,
    EmptyProfileError,
    FrequencyUnderflowError,
    InvariantViolationError,
    UnknownObjectError,
    WindowError,
)
from repro.server.protocol import (
    ProtocolError,
    decode_body,
    decode_error,
    encode_error,
    pack_frame,
    read_frame,
)

np = pytest.importorskip("numpy")

from repro.server.protocol import (  # noqa: E402
    BIN_KIND_ACKS,
    BIN_KIND_INGEST,
    BIN_KIND_JSON,
    encode_binary_acks,
    encode_binary_ingest,
    encode_binary_json,
    read_binary_frame,
)

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

#: Payloads shaped like real envelopes: scalar fields plus shallow
#: containers (event lists, query descriptions).
PAYLOADS = st.dictionaries(
    st.text(max_size=10),
    st.one_of(
        JSON_SCALARS,
        st.lists(JSON_SCALARS, max_size=4),
        st.dictionaries(st.text(max_size=5), JSON_SCALARS, max_size=3),
    ),
    max_size=6,
)

ERROR_TYPES = (
    CapacityError,
    CheckpointError,
    EmptyProfileError,
    FrequencyUnderflowError,
    InvariantViolationError,
    ProtocolError,
    UnknownObjectError,
    WindowError,
)


def read_one_json(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(run())


def read_one_binary(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_binary_frame(reader)

    return asyncio.run(run())


class TestJsonFrames:
    @settings(max_examples=100, deadline=None)
    @given(payload=PAYLOADS)
    def test_pack_read_identity(self, payload):
        assert read_one_json(pack_frame(payload)) == payload


class TestBinaryFrames:
    @settings(max_examples=100, deadline=None)
    @given(
        req=st.integers(min_value=0, max_value=2**64 - 1),
        pairs=st.lists(st.tuples(I64, I64), max_size=16),
    )
    def test_ingest_identity(self, req, pairs):
        ids = [p[0] for p in pairs]
        deltas = [p[1] for p in pairs]
        frame = read_one_binary(encode_binary_ingest(req, ids, deltas))
        assert frame.kind == BIN_KIND_INGEST
        assert frame.req == req
        assert list(frame.payload.ids) == ids
        assert list(frame.payload.deltas) == deltas
        payload = frame.payload
        assert list(zip(payload.ids.tolist(), payload.deltas.tolist())) == pairs

    @settings(max_examples=100, deadline=None)
    @given(triples=st.lists(st.tuples(I64, I64, I64), max_size=16))
    def test_acks_identity(self, triples):
        frame = read_one_binary(encode_binary_acks(triples))
        assert frame.kind == BIN_KIND_ACKS
        assert frame.payload == triples

    @settings(max_examples=100, deadline=None)
    @given(payload=PAYLOADS)
    def test_json_envelope_identity(self, payload):
        frame = read_one_binary(encode_binary_json(payload))
        assert frame.kind == BIN_KIND_JSON
        assert frame.payload == payload

    @settings(max_examples=100, deadline=None)
    @given(payload=PAYLOADS)
    def test_codecs_agree_on_json_payloads(self, payload):
        # The same value through either codec decodes identically —
        # the invariant behind the mid-stream hello codec switch.
        via_json = read_one_json(pack_frame(payload))
        via_binary = read_one_binary(encode_binary_json(payload))
        assert via_json == via_binary.payload
        # And the binary envelope's body *is* the JSON codec's body.
        assert decode_body(pack_frame(payload)[4:]) == via_json


class TestErrorTransport:
    @settings(max_examples=150, deadline=None)
    @given(
        cls=st.sampled_from(ERROR_TYPES),
        args=st.lists(JSON_SCALARS, max_size=3),
    )
    def test_structural_args_identity(self, cls, args):
        original = cls(*args)
        decoded = decode_error(encode_error(original))
        assert type(decoded) is cls
        assert decoded.args == original.args
        assert str(decoded) == str(original)

    @settings(max_examples=50, deadline=None)
    @given(
        cls=st.sampled_from(ERROR_TYPES),
        args=st.lists(JSON_SCALARS, max_size=3),
        hops=st.integers(min_value=1, max_value=4),
    )
    def test_transport_is_idempotent(self, cls, args, hops):
        exc = cls(*args)
        for _ in range(hops):
            exc = decode_error(encode_error(exc))
        assert type(exc) is cls
        assert exc.args == tuple(args)
