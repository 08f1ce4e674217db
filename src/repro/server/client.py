"""Client libraries for the profiling service.

One implementation of the wire protocol, two ways to call it.  Both
mirror the facade verbs (``ingest`` / ``evaluate`` / ``describe`` /
checkpoint download) and re-raise server-side rejections as the
library's own exception types:

- :class:`AsyncProfileClient` — the implementation: dial, server
  greeting, codec handshake, frame reading, request-id matching, error
  decoding, backoff and endpoint failover all live here.  It supports
  **pipelining**: any number of requests may be in flight, responses
  are matched by id, so a writer saturates the server's micro-batching
  flusher instead of paying one round trip per wire batch.
  ``ingest(..., wait=False)`` returns the pending ack as an
  :class:`asyncio.Future`.
- :class:`ProfileClient` — a blocking driver over the same code, for
  scripts, examples and REPLs (pair it with
  :class:`~repro.server.service.ServerThread` for in-process use).  It
  owns a private event loop, runs one :class:`AsyncProfileClient` on
  it, and each verb runs that loop until the async verb returns: no
  thread, no second copy of the protocol, strictly request/response.

Both accept the facade's full event vocabulary (``Event`` objects,
``(obj, flag)`` / ``(obj, delta)`` pairs, delta mappings) — batches
are normalized to wire pairs with the facade's own normalizer, so the
wire contract cannot drift from the in-process one.

The client negotiates the **binary codec** (``codec="auto"``, the
default): when the server's greeting offers it, the connection's first
request is a ``hello`` selecting binary, after which ingest batches
travel as raw int64 arrays
(:func:`~repro.server.protocol.encode_binary_ingest`) and acks come
back as packed arrays — with a zero-work fast path for batches already
shaped as an ``(ids, deltas)`` pair of numpy arrays.  ``codec="json"``
opts out; ``codec="binary"`` makes negotiation failure an error.
``max_frame`` caps every frame the client reads, greeting and replies
alike.

Reconnection (``reconnect=True``) makes a client survive its server's
restarts: dialing retries with capped exponential backoff (including
the first dial — a client may legitimately come up before its server,
e.g. the cluster router waiting out a replica respawn), and a dropped
connection heals transparently on the *next* request, renegotiating
the codec.  Each backoff sleep is shortened by a random jitter factor
(``backoff_jitter``, default up to 50%) so a fleet of clients dropped
by the same restart does not redial in lockstep and re-stampede the
recovering server; ``backoff_rng`` injects the random source, which is
how tests pin the exact sleep schedule.  What reconnection never does
is resend: a request in flight when the connection died has an
unknowable fate (the ack was lost, not necessarily the write), so
in-flight futures and the interrupted call fail with a clear
:class:`ConnectionError` and the caller decides — exactly-once is the
caller's contract, at-most-once is the client's.

The client also accepts an **endpoint list** (``endpoints=[(host,
port), ...]``) instead of a single address — the warm-standby
deployment shape, where a promoted standby serves on the next address
in the list.  Dialing is sticky: the client stays on the endpoint
that last answered, and only when reconnection to it is exhausted
(the full jittered backoff schedule) does it rotate to the next one,
wrapping around the list before giving up.  The at-most-once contract
is unchanged: failing over never resends anything.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from time import perf_counter
from typing import Any

import numpy as np

from repro.api.facade import _normalize_batch
from repro.api.plan import Query, normalize_queries
from repro.api.results import EvalResult
from repro.obs.registry import mint_trace_id
from repro.server.protocol import (
    BIN_KIND_ACKS,
    BIN_KIND_JSON,
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_error,
    decode_value,
    encode_binary_ingest,
    encode_binary_json,
    encode_queries,
    pack_frame,
    read_binary_frame,
    read_frame,
)

__all__ = ["AsyncProfileClient", "ProfileClient"]

_CODECS = ("auto", "binary", "json")


def _want_binary(codec: str, greeting: dict) -> bool:
    """Resolve the ``codec`` knob against the server greeting."""
    if codec not in _CODECS:
        raise ProtocolError(
            f"unknown codec {codec!r}; choose one of {_CODECS}"
        )
    if codec == "json":
        return False
    offered = "binary" in (greeting.get("codecs") or ())
    if codec == "binary" and not offered:
        raise ProtocolError(
            f"server offers codecs "
            f"{greeting.get('codecs') or ['json']}, not binary"
        )
    return offered


def _as_arrays(batch):
    """Split one ingest batch into parallel id/delta arrays.

    The zero-work fast path: a 2-tuple of numpy arrays passes through
    untouched (already wire-shaped).  Anything else runs the facade
    normalizer and is checked id-by-id — the binary codec carries
    integer object ids only, and booleans are rejected exactly like
    the server-side JSON decoder rejects them for dense servers.
    """
    if (
        isinstance(batch, tuple)
        and len(batch) == 2
        and isinstance(batch[0], np.ndarray)
        and isinstance(batch[1], np.ndarray)
    ):
        return batch
    ids: list[int] = []
    deltas: list[int] = []
    for obj, d in _normalize_batch(batch):
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise ProtocolError(
                f"binary codec carries integer object ids only, got "
                f"{obj!r}"
            )
        ids.append(obj)
        deltas.append(d)
    return ids, deltas


def _normalize_endpoints(host, port, endpoints) -> list[tuple[str, int]]:
    """Resolve the (host, port) / endpoints=[...] knobs into one list.

    ``endpoints`` wins when given (host/port are then ignored; an empty
    list is an error, not a fallback); a lone (host, port) pair becomes
    a one-element list, so the failover plumbing has exactly one shape
    to rotate over.
    """
    if endpoints is not None:
        out = [(str(h), int(p)) for h, p in endpoints]
        if not out:
            raise ValueError("endpoints list is empty")
        return out
    return [(str(host), int(port))]


async def _cancel_others() -> None:
    """Cancel and await every other task on the running loop.

    Running it also runs the transport callbacks that release sockets.
    """
    me = asyncio.current_task()
    tasks = [t for t in asyncio.all_tasks() if t is not me]
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


def _refuse_running_loop() -> None:
    """Raise before a blocking call would stall a running event loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return
    raise RuntimeError(
        "ProfileClient blocks its thread and cannot run inside an event "
        "loop; use AsyncProfileClient there"
    )


class AsyncProfileClient:
    """Pipelining asyncio client.  Construct via :meth:`connect`.

    >>> client = await AsyncProfileClient.connect(port=port)  # doctest: +SKIP
    >>> await client.ingest([(7, +2), (3, +1)])               # doctest: +SKIP
    3
    """

    def __init__(
        self,
        reader,
        writer,
        hello: dict,
        codec: str = "json",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        endpoints=None,
        want_codec: str | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        reconnect: bool = False,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        max_attempts: int = 20,
        backoff_jitter: float = 0.5,
        backoff_rng=None,
        trace: str | None = None,
    ) -> None:
        self._endpoints = _normalize_endpoints(host, port, endpoints)
        try:
            self._endpoint_idx = self._endpoints.index(
                (str(host), int(port))
            )
        except ValueError:
            self._endpoint_idx = 0
        self._host, self._port = self._endpoints[self._endpoint_idx]
        self._want = want_codec if want_codec is not None else codec
        self._max_frame = max_frame
        self._reconnect = reconnect
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._max_attempts = max_attempts
        self._backoff_jitter = backoff_jitter
        self._backoff_rng = (
            backoff_rng if backoff_rng is not None else random.random
        )
        self._trace = trace
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._closed = False
        self._install(reader, writer, hello, codec)

    def _install(self, reader, writer, hello: dict, codec: str) -> None:
        """Adopt a (re)established connection: streams, codec, reader."""
        self._reader = reader
        self._writer = writer
        self._hello = hello
        self._codec = codec
        self._wrap = encode_binary_json if codec == "binary" else pack_frame
        self._recv_task = asyncio.create_task(self._recv_loop())

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        endpoints=None,
        codec: str = "auto",
        max_frame: int = DEFAULT_MAX_FRAME,
        reconnect: bool = False,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        max_attempts: int = 20,
        backoff_jitter: float = 0.5,
        backoff_rng=None,
        trace: bool | str | None = None,
        redial: bool | None = None,
    ) -> "AsyncProfileClient":
        """Open a connection, consume the server hello, negotiate codec.

        With ``reconnect=True`` the dial (this one and every later
        transparent redial) retries refused/failed connections with
        exponential backoff from ``backoff_base`` seconds, doubling up
        to ``backoff_max`` — each sleep randomly shortened by up to
        ``backoff_jitter`` of itself (``backoff_rng`` injects the
        random source) — giving up with :class:`ConnectionError` after
        ``max_attempts`` tries.  Negotiation errors
        (:class:`ProtocolError`) are configuration problems and never
        retried.  ``redial=False`` keeps the retrying first dial but
        makes a later request on a dropped connection raise
        :class:`ConnectionError` at once instead of redialing (the
        cluster router's replica links: a lost replica is restored and
        replayed, never silently reconnected).

        ``endpoints=[(host, port), ...]`` replaces the single address
        with a failover list: each endpoint gets the full dial policy
        (one attempt, or the whole backoff schedule under
        ``reconnect=True``) before the client rotates to the next,
        raising :class:`ConnectionError` only once the rotation wraps.

        ``trace=True`` mints a request-trace id for this connection
        (``trace="<id>"`` supplies one); the id rides the hello
        envelope on either codec and stamps every span this
        connection's requests produce server-side.
        """
        rng = backoff_rng if backoff_rng is not None else random.random
        if trace is True:
            trace = mint_trace_id()
        trace = trace or None
        eps = _normalize_endpoints(host, port, endpoints)
        idx, reader, writer, hello, negotiated = await cls._dial_rotate(
            eps, 0, codec, max_frame,
            backoff_base, backoff_max, max_attempts,
            backoff_jitter, rng, reconnect, trace,
        )
        return cls(
            reader,
            writer,
            hello,
            codec=negotiated,
            host=eps[idx][0],
            port=eps[idx][1],
            endpoints=eps,
            want_codec=codec,
            max_frame=max_frame,
            reconnect=reconnect if redial is None else redial,
            backoff_base=backoff_base,
            backoff_max=backoff_max,
            max_attempts=max_attempts,
            backoff_jitter=backoff_jitter,
            backoff_rng=rng,
            trace=trace,
        )

    @staticmethod
    async def _dial(host, port, codec, max_frame, trace=None):
        """One connection attempt: TCP + server hello + codec handshake.

        The hello frame doubles as the trace carrier: it is sent when
        binary is wanted OR a trace id is set (a json-codec hello is a
        valid first request and is acked like any other).
        """
        reader, writer = await asyncio.open_connection(host, port)
        try:
            hello = await read_frame(reader, max_frame)
            if hello is None or hello.get("server") != "repro.server":
                raise ProtocolError(
                    f"{host}:{port} did not answer with a repro.server "
                    f"hello"
                )
            negotiated = "json"
            want_binary = _want_binary(codec, hello)
            if want_binary or trace:
                msg = {
                    "id": 0,
                    "op": "hello",
                    "codec": "binary" if want_binary else "json",
                    "version": PROTOCOL_VERSION,
                }
                if trace:
                    msg["trace"] = trace
                writer.write(pack_frame(msg))
                await writer.drain()
                ack = await read_frame(reader, max_frame)
                if ack is None:
                    raise ConnectionError(
                        "server closed during codec negotiation"
                    )
                if not ack.get("ok"):
                    raise decode_error(ack.get("error"))
                if want_binary:
                    negotiated = "binary"
        except BaseException:
            writer.close()
            raise
        return reader, writer, hello, negotiated

    @classmethod
    async def _dial_backoff(
        cls, host, port, codec, max_frame, base, cap, max_attempts,
        jitter=0.5, rng=random.random, trace=None,
    ):
        """Dial until connected, backing off exponentially (capped).

        The nominal delay doubles from ``base`` up to ``cap``; each
        actual sleep is ``delay * (1 - jitter * rng())`` — full delay
        at ``jitter=0``, anywhere down to half of it at the default —
        desynchronizing a fleet of clients that all lost the same
        server at the same instant.
        """
        delay = base
        last: Exception | None = None
        for _attempt in range(max_attempts):
            try:
                return await cls._dial(host, port, codec, max_frame, trace)
            except (ConnectionError, OSError) as exc:
                last = exc
                await asyncio.sleep(delay * (1.0 - jitter * rng()))
                delay = min(delay * 2, cap)
        raise ConnectionError(
            f"could not reach {host}:{port} after {max_attempts} "
            f"attempts (last error: {last})"
        ) from last

    @classmethod
    async def _dial_rotate(
        cls, eps, start, codec, max_frame, base, cap, max_attempts,
        jitter, rng, reconnect, trace=None,
    ):
        """Dial endpoints in rotation order starting at ``start``.

        Each endpoint is given the *entire* single-endpoint dial
        policy (one attempt, or the full backoff schedule under
        reconnect) before the rotation advances — failover is the
        escalation after reconnection is exhausted, not a first
        resort.  A lone endpoint re-raises its dial error untouched.
        """
        failures = []
        for offset in range(len(eps)):
            idx = (start + offset) % len(eps)
            host, port = eps[idx]
            try:
                if reconnect:
                    got = await cls._dial_backoff(
                        host, port, codec, max_frame,
                        base, cap, max_attempts, jitter, rng, trace,
                    )
                else:
                    got = await cls._dial(
                        host, port, codec, max_frame, trace
                    )
                return (idx, *got)
            except (ConnectionError, OSError) as exc:
                failures.append((f"{host}:{port}", exc))
        if len(eps) == 1:
            raise failures[0][1]
        detail = "; ".join(f"{ep}: {exc}" for ep, exc in failures)
        raise ConnectionError(
            f"all {len(eps)} endpoints unreachable ({detail})"
        ) from failures[-1][1]

    @property
    def hello(self) -> dict:
        """The server's hello frame (backend, keys, capacity, ...)."""
        return self._hello

    @property
    def codec(self) -> str:
        """The negotiated wire codec: ``"json"`` or ``"binary"``."""
        return self._codec

    @property
    def trace(self) -> str | None:
        """The connection's trace id (survives redials), or ``None``."""
        return self._trace

    # -- plumbing ------------------------------------------------------

    def _resolve(self, msg: dict) -> None:
        future = self._pending.pop(msg.get("id"), None)
        if future is None or future.done():
            return
        if msg.get("ok"):
            future.set_result(msg)
        else:
            exc = decode_error(msg.get("error"))
            exc.remote_seq = msg.get("seq")
            future.set_exception(exc)

    async def _recv_loop(self) -> None:
        binary = self._codec == "binary"
        try:
            while True:
                if binary:
                    frame = await read_binary_frame(
                        self._reader, self._max_frame
                    )
                    if frame is None:
                        break
                    if frame.kind == BIN_KIND_ACKS:
                        # One packed frame acks a whole flush's worth
                        # of pipelined ingests.
                        for req, seq, applied in frame.payload:
                            self._resolve(
                                {
                                    "id": req,
                                    "ok": True,
                                    "applied": applied,
                                    "seq": seq,
                                }
                            )
                        continue
                    if frame.kind != BIN_KIND_JSON:
                        raise ProtocolError(
                            "unexpected ingest frame from server"
                        )
                    msg = frame.payload
                else:
                    msg = await read_frame(self._reader, self._max_frame)
                    if msg is None:
                        break
                self._resolve(msg)
        except (ProtocolError, ConnectionError, OSError) as exc:
            self._fail_pending(self._dropped(exc))
        finally:
            self._fail_pending(self._dropped(None))

    def _dropped(self, cause: Exception | None) -> ConnectionError:
        """A descriptive in-flight failure (never a bare socket error).

        Requests that were pipelined when the connection died have an
        unknowable fate — the *ack* was lost, not necessarily the
        write — so the message spells out that resending is the
        caller's call, not the client's.
        """
        n = len(self._pending)
        detail = f": {cause}" if cause is not None else ""
        exc = ConnectionError(
            f"connection to {self._host}:{self._port} lost with "
            f"{n} request(s) in flight{detail}; their fate is unknown "
            f"and the client will not resend"
        )
        if cause is not None:
            exc.__cause__ = cause
        return exc

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _send_bytes(
        self, data: bytes, req_id: int, drain: bool = True
    ) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        try:
            self._writer.write(data)
            # drain() is the client-side backpressure valve: a no-op
            # while the transport buffer is shallow, suspends when the
            # server stops reading.
            if drain:
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(req_id, None)
            raise ConnectionError(
                f"write to {self._host}:{self._port} failed: {exc}"
            ) from exc
        return future

    async def _ensure_connected(self) -> None:
        """Heal a dropped connection before the next request goes out.

        Without ``reconnect=True`` this is just the liveness check a
        pipelined sender needs (a future registered against a dead
        receiver would never resolve).  With it, a dead receiver
        triggers a redial with the same backoff schedule as
        :meth:`connect`, renegotiating the codec from scratch — the
        request id counter keeps counting across connections, so stale
        acks from a broken predecessor can never match a new future.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        if not self._recv_task.done():
            return
        if not self._reconnect:
            raise ConnectionError("server connection closed")
        self._writer.close()
        idx, reader, writer, hello, negotiated = await self._dial_rotate(
            self._endpoints,
            self._endpoint_idx,
            self._want,
            self._max_frame,
            self._backoff_base,
            self._backoff_max,
            self._max_attempts,
            self._backoff_jitter,
            self._backoff_rng,
            True,
            self._trace,
        )
        self._endpoint_idx = idx
        self._host, self._port = self._endpoints[idx]
        self._install(reader, writer, hello, negotiated)

    async def submit(self, op: str, **fields) -> asyncio.Future:
        """Send one raw request; return its response as a pending Future.

        The pipelining form of :meth:`request`, as ``wait=False`` is of
        :meth:`ingest`: the request is on the wire when this returns,
        and the caller decides whether (and when) to await the reply.
        """
        await self._ensure_connected()
        req_id = next(self._ids)
        return await self._send_bytes(
            self._wrap({"id": req_id, "op": op, **fields}), req_id
        )

    async def request(self, op: str, **fields) -> dict:
        """Send one raw request and await its response payload."""
        return await (await self.submit(op, **fields))

    # -- the facade verbs ----------------------------------------------

    async def ingest(self, batch, *, wait: bool = True, drain: bool = True):
        """Apply one wire batch; return net unit events applied.

        With ``wait=False`` the pending ack is returned as a Future
        resolving to the response payload (``{"applied": n, "seq": s}``)
        — the pipelining hook: keep a window of futures in flight and
        award the ack latency to the micro-batch flush that served it.

        ``drain=False`` writes the frame without awaiting the transport
        drain, so the send never suspends, not even on a server that
        has stopped reading.  The caller then bounds the buffer itself:
        a server acks a frame only after reading it, so a sender that
        awaits its acks (under its own deadline) before sending more
        holds at most one window of frames in the buffer.

        On a binary connection the batch leaves as one raw int64 array
        frame; a batch already shaped as ``(ids, deltas)`` numpy arrays
        skips normalization entirely (see :func:`_as_arrays`).
        """
        await self._ensure_connected()
        if self._codec == "binary":
            ids, deltas = _as_arrays(batch)
            req_id = next(self._ids)
            future = await self._send_bytes(
                encode_binary_ingest(req_id, ids, deltas), req_id, drain
            )
        else:
            pairs = [[obj, d] for obj, d in _normalize_batch(batch)]
            req_id = next(self._ids)
            future = await self._send_bytes(
                self._wrap({"id": req_id, "op": "ingest", "events": pairs}),
                req_id,
                drain,
            )
        if not wait:
            return future
        return (await future)["applied"]

    async def evaluate(self, *queries: Query) -> EvalResult:
        """The fused multi-query plan, one round trip."""
        plan = normalize_queries(queries)
        resp = await self.request(
            "evaluate", queries=encode_queries(plan)
        )
        values = tuple(
            decode_value(q.kind, v)
            for q, v in zip(plan, resp["values"])
        )
        return EvalResult(
            queries=plan,
            values=values,
            partial=bool(resp.get("partial", False)),
        )

    async def describe(self) -> dict[str, Any]:
        """Engine introspection plus the ``server`` stats block."""
        return (await self.request("describe"))["info"]

    async def checkpoint(self) -> dict[str, Any]:
        """Download the facade checkpoint (``Profiler.to_state()``)."""
        return (await self.request("checkpoint"))["state"]

    async def restore(
        self, state: dict, *, recovering: bool = False
    ) -> str:
        """Upload a checkpoint; the server swaps its hosted profiler.

        A pipelined barrier like ``checkpoint``: every ingest sent
        before it applies to the old profiler, everything after to the
        restored one.  Returns the restored backend name.

        ``recovering=True`` (used by the cluster router) puts the
        server in recovering mode after the swap: reads from *other*
        connections fail fast with
        :class:`~repro.errors.ReplicaRecoveringError` until
        :meth:`resume` — the window in which the caller replays the
        journal behind the snapshot.
        """
        fields: dict[str, Any] = {"state": state}
        if recovering:
            fields["recovering"] = True
        return (await self.request("restore", **fields))["restored"]

    async def resume(self) -> bool:
        """End the recovering window opened by ``restore(recovering=True)``."""
        return (await self.request("resume"))["resumed"]

    async def rescale(self, n: int) -> dict[str, Any]:
        """Ask a cluster router to rebalance onto ``n`` partitions.

        Returns the cutover receipt ``{"partitions": n, "generation":
        g, "seq": s}`` once the migration committed — ingest keeps
        flowing the whole time (the router double-writes during the
        handoff epoch), so expect this to resolve well after ingests
        sent behind it.  Routers reject overlapping rescales with
        :class:`~repro.errors.ReplicaUnavailableError` (retryable once
        the in-flight migration finishes).
        """
        resp = await self.request("rescale", n=n)
        return {
            "partitions": resp["partitions"],
            "generation": resp["generation"],
            "seq": resp["seq"],
        }

    # -- 2PC verbs (cluster router only) --------------------------------

    async def prepare(self, txn: int, ids, deltas) -> int:
        """Phase 1: validate + stage one transaction's sub-batch.

        The server checks the ids against its capacity and replays
        strict-mode underflow admission against its state plus every
        transaction already staged; nothing is applied.  Raises the
        validation error on refusal.  Rides the JSON envelope on
        either codec — 2PC traffic is the strictness tax, not the hot
        path.
        """
        ids = ids.tolist() if hasattr(ids, "tolist") else list(ids)
        deltas = (
            deltas.tolist() if hasattr(deltas, "tolist") else list(deltas)
        )
        events = [[int(x), int(d)] for x, d in zip(ids, deltas)]
        return (
            await self.request("prepare", txn=txn, events=events)
        )["staged"]

    async def commit_txn(self, txn: int) -> int:
        """Phase 2: apply a staged transaction; returns units applied."""
        return (await self.request("commit", txn=txn))["applied"]

    async def abort_txn(self, txn: int) -> bool:
        """Drop a staged transaction (idempotent on unknown txns)."""
        return (await self.request("abort", txn=txn))["aborted"]

    async def health(self) -> dict[str, Any]:
        """Cheap liveness probe, answered out of band by the reader.

        Unlike every other op this does NOT wait behind queued ingest
        work, so it reflects the server's intake side (queue depth,
        applied seq) even while the flusher is busy.
        """
        return (await self.request("health"))["health"]

    async def metrics(self) -> dict[str, Any]:
        """The server's metrics-registry snapshot plus recent spans.

        Answered out of band like :meth:`health`, so it observes the
        server even while the flusher is busy.  Returns ``{"metrics":
        {...}, "spans": [...]}``; the metrics block is empty when the
        server runs with observability disabled.
        """
        resp = await self.request("metrics")
        return {
            "metrics": resp.get("metrics", {}),
            "spans": resp.get("spans", []),
        }

    async def ping(self) -> float:
        """Round-trip time through the ordered pipeline, in seconds."""
        start = perf_counter()
        await self.request("ping")
        return perf_counter() - start

    # Single-query conveniences (one evaluate round trip each).

    async def frequency(self, obj) -> int:
        return (await self.evaluate(Query.frequency(obj)))[0]

    async def mode(self):
        return (await self.evaluate(Query.mode()))[0]

    async def top_k(self, k: int):
        return (await self.evaluate(Query.top_k(k)))[0]

    async def total(self) -> int:
        return (await self.evaluate(Query.total()))[0]

    # -- lifecycle -----------------------------------------------------

    def abort(self) -> None:
        """Drop the connection NOW — no goodbye, no waiting.

        The circuit-breaker teardown: :meth:`aclose` politely waits up
        to 10 s for a goodbye ack, which is exactly wrong against a
        frozen (SIGSTOP'd) or wedged server.  In-flight futures fail
        with the standard dropped-connection error; the client object
        is closed and will not reconnect.
        """
        if self._closed:
            return
        self._closed = True
        self._recv_task.cancel()
        self._writer.transport.abort()
        self._fail_pending(self._dropped(None))

    async def aclose(self) -> None:
        """Graceful close: drain in-flight acks, say goodbye, hang up.

        Cancelled while waiting for the goodbye, it still hangs up.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._recv_task.done():
                raise ConnectionError("server connection closed")
            req_id = next(self._ids)
            future = asyncio.get_running_loop().create_future()
            self._pending[req_id] = future
            self._writer.write(self._wrap({"id": req_id, "op": "close"}))
            await self._writer.drain()
            await asyncio.wait_for(future, 10.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            self._recv_task.cancel()
            self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncProfileClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


class ProfileClient:
    """Blocking request/response client: :class:`AsyncProfileClient`
    driven on a private event loop.

    >>> client = ProfileClient("127.0.0.1", port)   # doctest: +SKIP
    >>> client.ingest({7: +2, 3: +1})               # doctest: +SKIP
    3

    The options mean what they mean on :meth:`AsyncProfileClient.connect`.
    The loop runs only inside a call, so a dropped connection is found
    by the next call: that call fails fate-unknown, and under
    ``reconnect=True`` the one after it redials.

    ``timeout`` (seconds, or ``None`` for no bound) bounds each call
    from end to end, dial and backoff included.  A call that runs out
    of time raises :class:`ConnectionError`: its fate is unknown and
    the client will not resend.  The connection is kept; a reply that
    arrives later is dropped by request-id matching.  :meth:`close` is
    bounded the same way.

    Calling it from inside a running event loop would block that loop,
    so construction and every verb raise :class:`RuntimeError` there;
    async callers use :class:`AsyncProfileClient` directly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        endpoints=None,
        codec: str = "auto",
        timeout: float | None = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        reconnect: bool = False,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        max_attempts: int = 20,
        backoff_jitter: float = 0.5,
        backoff_rng=None,
        trace: bool | str | None = None,
    ) -> None:
        _refuse_running_loop()
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._bounded(
                "dial",
                AsyncProfileClient.connect(
                    host,
                    port,
                    endpoints=endpoints,
                    codec=codec,
                    max_frame=max_frame,
                    reconnect=reconnect,
                    backoff_base=backoff_base,
                    backoff_max=backoff_max,
                    max_attempts=max_attempts,
                    backoff_jitter=backoff_jitter,
                    backoff_rng=backoff_rng,
                    trace=trace,
                ),
            )
        except BaseException:
            self._close_loop()
            raise

    def _bounded(self, what: str, coro):
        """Run ``coro`` on the private loop under the call timeout."""
        try:
            return self._loop.run_until_complete(
                asyncio.wait_for(coro, self._timeout)
            )
        except asyncio.TimeoutError:
            raise ConnectionError(
                f"{what} got no answer within {self._timeout} s; its "
                f"fate is unknown and the client will not resend"
            ) from None

    def _run(self, verb, /, *args, **fields):
        """Block on one async verb of the wrapped client."""
        _refuse_running_loop()
        if self._loop.is_closed():
            raise ConnectionError("client is closed")
        return self._bounded(
            f"request to {self._client._host}:{self._client._port}",
            verb(*args, **fields),
        )

    def _close_loop(self) -> None:
        """Settle what the loop still holds, then close it."""
        self._loop.run_until_complete(_cancel_others())
        self._loop.close()

    @property
    def hello(self) -> dict:
        """The server's hello frame (backend, keys, capacity, ...)."""
        return self._client.hello

    @property
    def codec(self) -> str:
        """The negotiated wire codec: ``"json"`` or ``"binary"``."""
        return self._client.codec

    @property
    def trace(self) -> str | None:
        """The connection's trace id (survives redials), or ``None``."""
        return self._client.trace

    # -- the facade verbs ----------------------------------------------

    def request(self, op: str, **fields) -> dict:
        """Send one request and block for its response payload."""
        return self._run(self._client.request, op, **fields)

    def ingest(self, batch) -> int:
        """Apply one wire batch; return net unit events applied."""
        return self._run(self._client.ingest, batch)

    def evaluate(self, *queries: Query) -> EvalResult:
        """The fused multi-query plan, one round trip."""
        return self._run(self._client.evaluate, *queries)

    def describe(self) -> dict[str, Any]:
        """Engine introspection plus the ``server`` stats block."""
        return self._run(self._client.describe)

    def checkpoint(self) -> dict[str, Any]:
        """Download the facade checkpoint (``Profiler.to_state()``)."""
        return self._run(self._client.checkpoint)

    def restore(self, state: dict, *, recovering: bool = False) -> str:
        """Upload a checkpoint; the server swaps its hosted profiler."""
        return self._run(self._client.restore, state, recovering=recovering)

    def rescale(self, n: int) -> dict[str, Any]:
        """Ask a cluster router to rebalance onto ``n`` partitions.

        Blocks until the migration commits (ingest from other
        connections keeps flowing meanwhile); returns the cutover
        receipt ``{"partitions": n, "generation": g, "seq": s}``.
        """
        return self._run(self._client.rescale, n)

    def health(self) -> dict[str, Any]:
        """Cheap liveness probe, answered out of band by the reader."""
        return self._run(self._client.health)

    def metrics(self) -> dict[str, Any]:
        """The server's metrics-registry snapshot plus recent spans."""
        return self._run(self._client.metrics)

    def ping(self) -> float:
        """Round-trip time through the ordered pipeline, in seconds."""
        return self._run(self._client.ping)

    def frequency(self, obj) -> int:
        return self._run(self._client.frequency, obj)

    def mode(self):
        return self._run(self._client.mode)

    def top_k(self, k: int):
        return self._run(self._client.top_k, k)

    def total(self) -> int:
        return self._run(self._client.total)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Graceful close (idempotent), bounded by ``timeout``."""
        _refuse_running_loop()
        if self._loop.is_closed():
            return
        try:
            self._run(self._client.aclose)
        except ConnectionError:
            pass  # no goodbye in time; aclose hung up regardless
        finally:
            self._close_loop()

    def __enter__(self) -> "ProfileClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
