"""Wire protocol of the profiling service: JSON frames + binary codec.

Two codecs share one semantic model, negotiated per connection:

**JSON (default, permanent fallback).**  One frame is a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
JSON keeps the protocol debuggable (``nc`` + ``printf`` can drive a
server) and keys the whole surface off the same JSON-safe vocabulary
the facade checkpoints already use; the length prefix makes framing
O(1) and lets the server enforce a hard frame cap before a single byte
of the body is parsed.

**Binary (negotiated).**  Every frame starts with one fixed-width
24-byte little-endian header — magic, frame kind, dtype tag, request
seq, event count, payload length — followed by the payload:

========  ======  ====================================================
offset    field   meaning
========  ======  ====================================================
0  (u32)  magic   :data:`BINARY_MAGIC`; anything else is a framing
                  error (there is no resynchronizing the stream)
4  (u8)   kind    :data:`BIN_KIND_JSON` (UTF-8 JSON object payload),
                  :data:`BIN_KIND_INGEST` (raw little-endian int64
                  event arrays: ``count`` object ids then ``count``
                  deltas), :data:`BIN_KIND_ACKS` (packed int64
                  triples: ``count`` request ids, ``count`` server
                  seqs, ``count`` applied counts / negative = error)
5  (u8)   dtype   element width tag: 8 (int64) for array kinds, 0 for
                  JSON payloads
6  (u16)  -       reserved, must be 0
8  (u64)  req     request id (array kinds; 0 for JSON payloads, whose
                  body carries its own ``id``)
16 (u32)  count   element count of each packed array (0 for JSON)
20 (u32)  length  payload byte length; validated against ``count``
                  and the frame cap *before* the body is read
========  ======  ====================================================

The binary codec is selected by a ``hello`` request (see
:mod:`repro.server.service`): the server's greeting advertises
``codecs``, the client's first request may be ``{"op": "hello",
"codec": "binary"}``, and after the (JSON) ack both directions speak
binary frames.  Ingest rides :data:`BIN_KIND_INGEST` — the server
decodes the payload with ``np.frombuffer`` into the array ingest
path, no per-event Python objects in the decode — and every
other operation rides a :data:`BIN_KIND_JSON` envelope with the exact
JSON payload it would have as a bare JSON frame, which is what pins
the two codecs to one semantic model.  Binary event values must fit
int64; wider integers need the JSON codec.

Requests are objects ``{"id": <int>, "op": <str>, ...}``; every request
is answered by exactly one response ``{"id": <same>, "ok": true, ...}``
or ``{"id": <same>, "ok": false, "error": {...}, ...}``, in request
order per connection (pipelining-safe: responses also echo the id, so a
client may keep many requests in flight and match by id).

Operations
----------
``ingest``
    ``{"events": [[obj, delta], ...]}`` — one **wire batch**, applied
    all-or-nothing with the facade's batch semantics.  The ack carries
    ``applied`` (net unit events, the facade's ``ingest`` return value)
    and ``seq`` — the position of this wire batch in the server's
    serialization order (rejections carry ``seq`` too: the order the
    rejection was decided in).
``evaluate``
    ``{"queries": [{"kind": k, "args": [...]}, ...]}`` — the fused
    multi-query plan; values come back encoded per kind (see
    :func:`encode_value`).
``describe``
    Engine introspection plus a ``server`` block of service stats.
``checkpoint``
    The facade checkpoint (``Profiler.to_state()``) as the response's
    ``state`` field — JSON-safe by construction, restorable with
    :meth:`repro.api.Profiler.from_state`.
``ping``
    Round-trip liveness probe answering ``{"pong": true}``; it rides
    the ordered pipeline, so its latency includes the queue.
``health``
    Cheap introspection (role, partition, backend, capacity, applied
    ``seq``, queue depth) answered **out of band** by the connection's
    reader — the one op that does *not* ride the ordered pipeline, so
    a backed-up queue cannot delay a heartbeat.  Pipelining clients
    match by id, which makes the reordering safe; strictly
    request/response clients see no difference.
``restore``
    ``{"state": {...}}`` — upload a facade checkpoint and swap it in
    as the hosted profiler.  Rides the ordered pipeline (a barrier:
    prior ingests apply to the old state, later ones to the restored
    one); refused unless keys mode, strict flag and capacity match the
    hosted profiler.  The recovery half of ``checkpoint``: the
    :mod:`repro.cluster` router brings a replacement replica current
    with ``restore`` + seq-ordered replay of journaled wire batches.
``close``
    Graceful connection shutdown: the server flushes every batch
    queued before it, acks ``{"closing": true}`` and closes the
    connection.

Object ids ride JSON: integers for dense-key profilers, any JSON
scalar for hashable keys.  A dense-key server rejects non-integer ids
at the protocol boundary (before they can reach — and non-atomically
corrupt — an integer-indexed engine).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Sequence

import numpy as np

from repro.api.plan import POINT_KINDS, WALK_KINDS, Query
from repro.core.profile import ArrayBatch
from repro.core.queries import ModeResult, TopEntry
from repro.errors import (
    CapacityError,
    CheckpointError,
    ClusterUnhealthyError,
    EmptyProfileError,
    FrequencyUnderflowError,
    InvariantViolationError,
    ReplicaRecoveringError,
    ReplicaUnavailableError,
    ReproError,
    StreamConfigError,
    UnknownObjectError,
    UnsupportedQueryError,
    WindowError,
)

__all__ = [
    "BINARY_MAGIC",
    "BIN_KIND_ACKS",
    "BIN_KIND_INGEST",
    "BIN_KIND_JSON",
    "DEFAULT_MAX_FRAME",
    "PROTOCOL_VERSION",
    "ArrayBatch",
    "BinaryFrame",
    "ProtocolError",
    "RemoteError",
    "decode_binary_payload",
    "decode_error",
    "decode_events",
    "decode_queries",
    "decode_value",
    "encode_binary_acks",
    "encode_binary_ingest",
    "encode_binary_json",
    "encode_error",
    "encode_queries",
    "encode_value",
    "pack_frame",
    "parse_binary_header",
    "read_binary_frame",
    "read_binary_frame_from",
    "read_frame",
]

#: Bump when the frame or payload layout changes incompatibly.
PROTOCOL_VERSION = 1

#: Default hard cap on one frame's body (checkpoint downloads of large
#: universes are the biggest legitimate frames).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class ProtocolError(ReproError, ValueError):
    """A frame or payload violates the wire contract."""


class RemoteError(ReproError):
    """A server-side error of a type this client does not know."""


def pack_frame(payload: dict) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(body)) + body


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = DEFAULT_MAX_FRAME
):
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolError` for oversized frames, invalid JSON,
    non-object payloads, or EOF inside a frame.
    """
    try:
        head = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} header "
            f"bytes of {_LEN.size})"
        ) from exc
    (length,) = _LEN.unpack(head)
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} body "
            f"bytes of {length})"
        ) from exc
    return decode_body(body)


def decode_body(body: bytes) -> dict:
    """Parse one frame body into its payload object."""
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


# ----------------------------------------------------------------------
# The binary codec
# ----------------------------------------------------------------------

#: First four bytes of every binary frame (``b"1BPR"`` on the wire).
BINARY_MAGIC = 0x52504231

#: Binary frame kinds (the ``kind`` header byte).
BIN_KIND_JSON = 1
BIN_KIND_INGEST = 2
BIN_KIND_ACKS = 3

_BIN_KINDS = (BIN_KIND_JSON, BIN_KIND_INGEST, BIN_KIND_ACKS)

#: dtype tag: element byte width.  Only int64 arrays exist today; the
#: tag is in the header so a future wider/narrower layout can coexist.
_DTYPE_I64 = 8

#: magic u32, kind u8, dtype u8, reserved u16, req u64, count u32,
#: payload length u32 — 24 bytes, little-endian, no padding.
_BIN_HEAD = struct.Struct("<IBBHQII")

#: Events per binary ingest frame are (id, delta) int64 pairs.
_INGEST_ITEM = 16
#: Acks are (request id, seq, applied) int64 triples.
_ACK_ITEM = 24


class BinaryFrame:
    """One decoded binary frame: ``kind``, header ``req``, payload.

    ``payload`` is a dict for :data:`BIN_KIND_JSON`, an
    :class:`ArrayBatch` for :data:`BIN_KIND_INGEST` and a list of
    ``(req_id, seq, applied)`` int triples for :data:`BIN_KIND_ACKS`.
    """

    __slots__ = ("kind", "req", "payload")

    def __init__(self, kind: int, req: int, payload) -> None:
        self.kind = kind
        self.req = req
        self.payload = payload


def parse_binary_header(
    head: bytes, max_frame: int = DEFAULT_MAX_FRAME
) -> tuple:
    """Validate one 24-byte header; return ``(kind, req, count, length)``.

    Every structural check happens here, *before* any payload byte is
    read or buffered: magic, kind, dtype tag consistency, the reserved
    field, the frame cap, and the exact ``length``/``count`` arithmetic
    of the array kinds — so an adversarial header cannot make a reader
    allocate or wait for an absurd body.
    """
    magic, kind, dtype, reserved, req, count, length = _BIN_HEAD.unpack(
        head
    )
    if magic != BINARY_MAGIC:
        raise ProtocolError(
            f"bad binary frame magic 0x{magic:08x} "
            f"(expected 0x{BINARY_MAGIC:08x})"
        )
    if kind not in _BIN_KINDS:
        raise ProtocolError(f"unknown binary frame kind {kind}")
    if reserved != 0:
        raise ProtocolError(
            f"reserved binary header field must be 0, got {reserved}"
        )
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    if kind == BIN_KIND_JSON:
        if dtype != 0 or count != 0:
            raise ProtocolError(
                f"JSON payload frames carry dtype=0 count=0, got "
                f"dtype={dtype} count={count}"
            )
    else:
        if dtype != _DTYPE_I64:
            raise ProtocolError(
                f"binary array frames carry int64 (dtype tag "
                f"{_DTYPE_I64}), got {dtype}"
            )
        item = _INGEST_ITEM if kind == BIN_KIND_INGEST else _ACK_ITEM
        if length != count * item:
            raise ProtocolError(
                f"binary frame declares {count} elements but "
                f"{length} payload bytes (expected {count * item})"
            )
    return kind, req, count, length


def decode_binary_payload(
    kind: int, req: int, count: int, body: bytes
) -> BinaryFrame:
    """Decode one validated binary frame body (header already checked).

    Ingest and ack arrays decode with ``np.frombuffer`` — views over
    ``body``, no copy, no per-element objects.
    """
    if kind == BIN_KIND_JSON:
        return BinaryFrame(kind, req, decode_body(body))
    arr = np.frombuffer(body, dtype="<i8")
    if kind == BIN_KIND_INGEST:
        return BinaryFrame(
            kind, req, ArrayBatch(arr[:count], arr[count:])
        )
    reqs, seqs, applied = (
        arr[:count],
        arr[count : 2 * count],
        arr[2 * count :],
    )
    triples = list(zip(reqs.tolist(), seqs.tolist(), applied.tolist()))
    return BinaryFrame(kind, req, triples)


async def read_binary_frame(
    reader: asyncio.StreamReader, max_frame: int = DEFAULT_MAX_FRAME
):
    """Read one binary frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolError` for anything a malformed or
    truncated frame can express — the header is fully validated before
    the body is read, so the reader never blocks on (or buffers) a
    body an invalid header promised.
    """
    try:
        head = await reader.readexactly(_BIN_HEAD.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} header "
            f"bytes of {_BIN_HEAD.size})"
        ) from exc
    kind, req, count, length = parse_binary_header(head, max_frame)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} body "
            f"bytes of {length})"
        ) from exc
    return decode_binary_payload(kind, req, count, body)


def read_binary_frame_from(read, max_frame: int = DEFAULT_MAX_FRAME):
    """Blocking twin of :func:`read_binary_frame`.

    ``read`` is a buffered ``read(n)`` callable (e.g. the ``read`` of an
    :class:`io.BytesIO`) that returns fewer than ``n`` bytes only at EOF.
    Same contract: ``None`` on clean EOF at a frame boundary,
    :class:`ProtocolError` on anything malformed, header fully
    validated before the body is read.
    """
    head = read(_BIN_HEAD.size)
    if not head:
        return None
    if len(head) < _BIN_HEAD.size:
        raise ProtocolError(
            f"connection closed mid-frame ({len(head)} header bytes "
            f"of {_BIN_HEAD.size})"
        )
    kind, req, count, length = parse_binary_header(head, max_frame)
    body = read(length)
    if len(body) < length:
        raise ProtocolError(
            f"connection closed mid-frame ({len(body)} body bytes "
            f"of {length})"
        )
    return decode_binary_payload(kind, req, count, body)


def _pack_binary(kind: int, dtype: int, req: int, count: int, body: bytes):
    return (
        _BIN_HEAD.pack(
            BINARY_MAGIC, kind, dtype, 0, req, count, len(body)
        )
        + body
    )


def encode_binary_json(payload: dict) -> bytes:
    """One JSON-payload binary frame (requests and rich responses)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _pack_binary(BIN_KIND_JSON, 0, 0, 0, body)


def encode_binary_ingest(req_id: int, ids, deltas) -> bytes:
    """One ingest frame: header + raw int64 ids then int64 deltas.

    ``ids``/``deltas`` may be NumPy arrays (any integer dtype; cast to
    little-endian int64 without copying when already that layout) or
    plain sequences of ints.  Values outside int64 raise
    :class:`ProtocolError` — the JSON codec carries those.
    """
    try:
        ids = np.ascontiguousarray(ids, dtype="<i8")
        deltas = np.ascontiguousarray(deltas, dtype="<i8")
        if ids.ndim != 1 or ids.shape != deltas.shape:
            raise ProtocolError(
                f"ids and deltas must be parallel 1-d arrays, got "
                f"shapes {ids.shape} and {deltas.shape}"
            )
        count = len(ids)
        body = ids.tobytes() + deltas.tobytes()
        return _pack_binary(BIN_KIND_INGEST, _DTYPE_I64, req_id, count, body)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(
            f"events do not fit the binary int64 layout: {exc}"
        ) from exc


def encode_binary_acks(triples) -> bytes:
    """One packed ack frame from ``(req_id, seq, applied)`` triples.

    The flusher's one-write-per-connection-per-flush hot path: ``n``
    acks cost one 24-byte header plus ``3n`` int64s, packed as three
    contiguous arrays (request ids, seqs, applied counts).
    """
    triples = list(triples)
    count = len(triples)
    arr = np.array(triples, dtype="<i8").reshape(count, 3)
    body = arr.T.tobytes(order="C")
    return _pack_binary(BIN_KIND_ACKS, _DTYPE_I64, 0, count, body)


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------


def decode_events(payload, *, dense: bool) -> list:
    """Validate one wire batch into ``(obj, delta)`` pairs.

    ``dense`` servers require integer object ids (JSON booleans are
    rejected too: they *are* ints in Python, but a client sending
    ``true`` as an object id is confused, not clever).  Deltas must be
    integers everywhere.
    """
    if not isinstance(payload, list):
        raise ProtocolError(
            f"'events' must be a list of [obj, delta] pairs, got "
            f"{type(payload).__name__}"
        )
    pairs = []
    for item in payload:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ProtocolError(
                f"each event must be an [obj, delta] pair, got {item!r}"
            )
        obj, delta = item
        if isinstance(delta, bool) or not isinstance(delta, int):
            raise ProtocolError(
                f"event delta must be an integer, got {delta!r}"
            )
        if dense and (isinstance(obj, bool) or not isinstance(obj, int)):
            raise ProtocolError(
                f"dense object ids must be integers, got {obj!r}"
            )
        if not dense and isinstance(obj, (list, dict)):
            raise ProtocolError(
                f"hashable object ids must be JSON scalars, got {obj!r}"
            )
        pairs.append((obj, delta))
    return pairs


# ----------------------------------------------------------------------
# Queries and values
# ----------------------------------------------------------------------

_QUERY_KINDS = WALK_KINDS | POINT_KINDS


def encode_queries(queries: Sequence[Query]) -> list:
    """``Query`` tuple -> wire description list."""
    return [{"kind": q.kind, "args": list(q.args)} for q in queries]


def decode_queries(payload) -> tuple:
    """Wire description list -> validated ``Query`` tuple.

    Reconstruction goes through the :class:`Query` classmethod
    constructors so parameter validation (quantile in [0, 1], k >= 0,
    ...) happens at the protocol boundary with the library's own
    error types.
    """
    if not isinstance(payload, list):
        raise ProtocolError(
            f"'queries' must be a list, got {type(payload).__name__}"
        )
    queries = []
    for item in payload:
        if not isinstance(item, dict) or "kind" not in item:
            raise ProtocolError(
                f"each query must be an object with a 'kind', got {item!r}"
            )
        kind = item["kind"]
        args = item.get("args", [])
        if kind not in _QUERY_KINDS:
            raise ProtocolError(
                f"unknown query kind {kind!r}; choose from "
                f"{sorted(_QUERY_KINDS)}"
            )
        if not isinstance(args, list):
            raise ProtocolError(f"query args must be a list, got {args!r}")
        ctor = getattr(Query, kind)
        try:
            queries.append(ctor(*args))
        except TypeError as exc:
            raise ProtocolError(
                f"bad arguments for query {kind!r}: {exc}"
            ) from exc
    return tuple(queries)


def encode_value(kind: str, value) -> Any:
    """Encode one query answer JSON-safely, keyed by the query kind."""
    if kind in ("mode", "least"):
        return {
            "frequency": value.frequency,
            "count": value.count,
            "example": value.example,
        }
    if kind in ("top_k", "heavy_hitters"):
        return [[entry.obj, entry.frequency] for entry in value]
    if kind == "kth_most_frequent":
        return [value.obj, value.frequency]
    if kind == "histogram":
        return [[f, count] for f, count in value]
    return value


def decode_value(kind: str, payload) -> Any:
    """Inverse of :func:`encode_value` (same kind-keyed dispatch)."""
    if kind in ("mode", "least"):
        return ModeResult(
            frequency=payload["frequency"],
            count=payload["count"],
            example=payload["example"],
        )
    if kind in ("top_k", "heavy_hitters"):
        return [TopEntry(obj, f) for obj, f in payload]
    if kind == "kth_most_frequent":
        return TopEntry(payload[0], payload[1])
    if kind == "histogram":
        return [(f, count) for f, count in payload]
    return payload


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------

#: Exception types that cross the wire by name and reconstruct on the
#: client as the same class (all take one message argument, except
#: UnsupportedQueryError which ships its two fields).
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        CapacityError,
        CheckpointError,
        ClusterUnhealthyError,
        EmptyProfileError,
        FrequencyUnderflowError,
        InvariantViolationError,
        ProtocolError,
        ReplicaRecoveringError,
        ReplicaUnavailableError,
        StreamConfigError,
        UnknownObjectError,
        WindowError,
    )
}


_JSON_SCALARS = (str, int, float, bool, type(None))


def encode_error(exc: BaseException) -> dict:
    """Exception -> wire error object.

    ``args`` ships structurally whenever every element is a JSON
    scalar, so the client reconstructs ``cls(*args)`` — not
    ``cls(str(exc))``.  The distinction matters for exception types
    whose ``str`` is a *repr* of their args (``KeyError`` subclasses
    like :class:`~repro.errors.UnknownObjectError`): rebuilding from
    the string re-quotes the detail on every hop, so a dense-id or
    non-ASCII key grows escapes each time the error crosses a wire.
    ``message`` stays alongside for older peers and unknown types.
    """
    out = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, UnsupportedQueryError):
        out["profiler"] = exc.profiler
        out["query"] = exc.query
        return out
    if all(isinstance(a, _JSON_SCALARS) for a in exc.args):
        out["args"] = list(exc.args)
    return out


def decode_error(payload) -> Exception:
    """Wire error object -> exception instance (not raised here).

    Prefers the structural ``args`` when present (round-trip
    idempotent: ``decode(encode(e))`` preserves ``e.args`` and
    ``str(e)`` exactly); falls back to the flat ``message`` for
    payloads from peers that did not ship args.
    """
    if not isinstance(payload, dict):
        return RemoteError(f"malformed error payload: {payload!r}")
    name = payload.get("type", "RemoteError")
    message = payload.get("message", "")
    if name == "UnsupportedQueryError":
        return UnsupportedQueryError(
            payload.get("profiler", "?"), payload.get("query", "?")
        )
    cls = _ERROR_TYPES.get(name)
    if cls is not None:
        args = payload.get("args")
        if isinstance(args, list) and all(
            isinstance(a, _JSON_SCALARS) for a in args
        ):
            return cls(*args)
        return cls(message)
    return RemoteError(f"{name}: {message}")
