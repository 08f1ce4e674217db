"""The profiling service: an asyncio TCP server with micro-batching.

:class:`ProfileServer` hosts one :class:`~repro.api.Profiler` (any
backend) behind the wire protocol of :mod:`repro.server.protocol`.
The write path is a **micro-batching pipeline**:

1. every connection's reader decodes wire batches and enqueues them on
   one bounded :class:`asyncio.Queue` (the bound is the backpressure
   valve — a full queue stops the reader, which stops reading the
   socket, which stalls the sender through TCP flow control);
2. a single flusher task **group-commits**: whenever it is free it
   takes every wire batch already queued, up to ``batch_max`` events,
   into **one** engine call.  There is no timer — batches
   form on their own while the previous flush applies, fsyncs or fans
   out, so a lone batch on an idle server leaves at once and a loaded
   server rides the facade's vectorized batch machinery instead of a
   per-request engine transaction;
3. acks are written per request (pipelining clients match them by id),
   but grouped into one socket write per connection per flush.

Coalescing never changes semantics: a flush is one
:meth:`~repro.api.Profiler.ingest_batches` call, which admits each wire
batch against the profiler state *plus the net effect of the wire
batches already admitted in this flush*, exactly reproducing the
outcome of applying the wire batches one ``ingest()`` at a time in
arrival order.  A rejected wire batch is rejected whole (all-or-nothing
per wire batch) and the error goes only to the offending client; every
other batch in the flush still lands.  Each ingest ack carries ``seq``
— the batch's position in this serialization order — so clients (and
the equivalence property tests) can replay the exact history.

Reads (``evaluate`` / ``describe`` / ``checkpoint`` / ``ping``) and
the checkpoint-upload ``restore`` ride the same queue, acting as flush
barriers: a query observes precisely the wire batches enqueued before
it, i.e. always a consistent batch boundary, never half a flush.  The
one exception is ``health`` — the liveness probe is answered directly
by the connection's reader, out of band, precisely so a backed-up
pipeline cannot delay it.

Connections speak JSON until they negotiate otherwise: a ``hello``
request — valid only as a connection's first request — may select the
binary codec (:mod:`repro.server.protocol`), after which that
connection's ingests arrive as raw int64 arrays (decoded zero-copy via
``np.frombuffer``) and its flush acks leave as packed seq/status
arrays.  Codecs are per-connection; binary and JSON clients coexist on
one server and one flush, with identical semantics.

Shutdown (:meth:`ProfileServer.stop`) is a graceful drain: stop
accepting, stop reading, flush and ack everything already queued, then
close the connections.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.api.facade import Profiler
from repro.errors import (
    CapacityError,
    CheckpointError,
    ReplicaRecoveringError,
    ReproError,
)
from repro.server.protocol import (
    BIN_KIND_INGEST,
    BIN_KIND_JSON,
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_events,
    decode_queries,
    encode_binary_acks,
    encode_binary_json,
    encode_error,
    encode_value,
    pack_frame,
    read_binary_frame,
    read_frame,
)
from repro.obs.registry import (
    SIZE_BOUNDS,
    json_sanitize,
    merge_snapshots,
    resolve_registry,
)
from repro.testing.faults import fault_point

__all__ = ["ProfileServer", "ServerStats", "ServerThread"]


def _int_ids(profiler) -> bool:
    """Whether the wire must carry int ids for ``profiler``.  Approx
    sketches take hashable keys natively whatever the facade's keys
    mode says; every other dense-keyed backend indexes int arrays."""
    return profiler.keys == "dense" and profiler.backend_name != "approx"


# ----------------------------------------------------------------------
# Service plumbing
# ----------------------------------------------------------------------


@dataclass
class ServerStats:
    """Service-level counters, exposed in ``describe()['server']``."""

    connections_total: int = 0
    connections_dropped: int = 0
    binary_connections: int = 0
    requests: int = 0
    rejected: int = 0
    wire_batches: int = 0
    wire_events: int = 0
    applied_units: int = 0
    flushes: int = 0
    max_flush_events: int = 0
    queries: int = 0
    checkpoints: int = 0
    restores: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class _Item:
    """One unit of the ordered pipeline."""

    __slots__ = ("kind", "conn", "req_id", "data", "seq", "t_enq")

    def __init__(self, kind, conn, req_id, data=None) -> None:
        self.kind = kind
        self.conn = conn
        self.req_id = req_id
        self.data = data
        self.seq = None
        # Enqueue timestamp (loop.time()), stamped only when obs is
        # enabled — feeds the queue-wait histogram and trace spans.
        self.t_enq = 0.0


_STOP = _Item("stop", None, None)


class _Connection:
    """One client connection: serialized, timeout-guarded writes.

    ``rx_codec``/``tx_codec`` start as ``"json"`` and flip to
    ``"binary"`` independently during the hello handshake: the reader
    flips ``rx`` synchronously on a valid hello (before the next frame
    is read — the client may pipeline binary frames right behind the
    hello), while ``tx`` flips only after the JSON hello ack is written
    (the client reads JSON until it sees that ack).
    """

    __slots__ = (
        "server", "reader", "writer", "alive", "lock", "closing",
        "rx_codec", "tx_codec", "hello_window", "trace",
    )

    def __init__(self, server, reader, writer) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.alive = True
        self.closing = False
        self.lock = asyncio.Lock()
        self.rx_codec = "json"
        self.tx_codec = "json"
        # A hello is valid only as the connection's very first request.
        self.hello_window = True
        # Request-trace id carried by the hello envelope (both codecs
        # negotiate via the same JSON hello); None = untraced, which
        # keeps the hot path span-free.
        self.trace = None

    async def send(self, data: bytes) -> None:
        """Write one frame; abort the peer if it stalls the drain.

        A healthy peer costs a buffered write and nothing else: the
        drain (under the slow-client timeout) is awaited only once the
        transport buffer sits above its high-water mark, or the
        transport is closing — the only states in which ``drain()``
        would suspend at all.
        """
        if not self.alive:
            return
        async with self.lock:
            if not self.alive:
                return
            writer = self.writer
            try:
                writer.write(data)
                transport = writer.transport
                if (
                    transport.is_closing()
                    or transport.get_write_buffer_size()
                    > transport.get_write_buffer_limits()[1]
                ):
                    await asyncio.wait_for(
                        writer.drain(), self.server._write_timeout
                    )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                self.abort()

    def abort(self) -> None:
        """Drop the connection now (slow or broken client)."""
        if not self.alive:
            return
        self.alive = False
        self.server._stats.connections_dropped += 1
        self.server._obs_drops.inc()
        with contextlib.suppress(Exception):
            self.writer.transport.abort()

    async def close(self) -> None:
        """Orderly close (pending acks were already flushed)."""
        self.alive = False
        with contextlib.suppress(Exception):
            self.writer.close()
            await self.writer.wait_closed()


class ProfileServer:
    """Serve one :class:`~repro.api.Profiler` over TCP.

    Parameters
    ----------
    profiler:
        The hosted facade; any backend works, and every flush is one
        :meth:`~repro.api.Profiler.ingest_batches` call.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    batch_max:
        Most *events* (not wire batches) one flush takes from the
        queue; a single wire batch larger than this flushes alone.
        ``1`` disables micro-batching — every wire batch becomes its
        own engine call (the unbatched baseline of the ``serve`` perf
        trajectory).
    queue_size:
        Bound of the ingest queue, in pipeline items; the backpressure
        valve for writers.
    write_timeout:
        Seconds a response write may stall before the client is
        declared slow and dropped (protects the flusher — and every
        other client — from one dead peer).
    max_frame:
        Hard per-frame byte cap (both directions).
    binary:
        Whether connections may negotiate the binary codec.  Even when
        ``True`` (the default) binary is only *offered* if the hosted
        profiler is dense-keyed (hashable keys cannot ride raw int64
        arrays); JSON always works.
    role / partition:
        Deployment annotations surfaced through the ``health`` op and
        ``describe()``: ``role`` is ``"standalone"`` (default) or
        ``"replica"`` (one partition of a :mod:`repro.cluster` tier),
        ``partition`` is the owned ``(index, n_partitions)`` slot.
        Purely introspective — the server behaves identically.
    """

    def __init__(
        self,
        profiler: Profiler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_max: int = 512,
        queue_size: int = 4096,
        write_timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        binary: bool = True,
        role: str = "standalone",
        partition: tuple[int, int] | None = None,
        obs=None,
    ) -> None:
        if batch_max < 1:
            raise CapacityError(f"batch_max must be >= 1, got {batch_max}")
        if queue_size < 1:
            raise CapacityError(f"queue_size must be >= 1, got {queue_size}")
        self._profiler = profiler
        self._host = host
        self._bind_port = port
        self._batch_max = batch_max
        self._queue_size = queue_size
        self._write_timeout = write_timeout
        self._max_frame = max_frame
        self._dense = _int_ids(profiler)
        self._binary = bool(binary) and self._dense
        self._role = role
        self._partition = tuple(partition) if partition else None
        self._stats = ServerStats()
        self._seq = 0
        # Preallocated obs instruments (shared no-op singletons when
        # disabled): the flusher touches bound slots only, and the
        # per-item enqueue stamp is gated on one bool.
        self._obs = resolve_registry(obs)
        self._obs_on = self._obs.enabled
        self._obs_ingest_batches = self._obs.counter("server.ingest.batches")
        self._obs_ingest_events = self._obs.counter("server.ingest.events")
        self._obs_flush_events = self._obs.histogram(
            "server.flush.events", bounds=SIZE_BOUNDS
        )
        self._obs_queue_wait = self._obs.histogram("server.queue.wait_ms")
        self._obs_queue_depth = self._obs.gauge("server.queue.depth")
        self._obs_drops = self._obs.counter("server.connections.dropped")
        self._obs_trace_marks = self._obs.counter("server.trace.marks")
        # 2PC transactions staged by a cluster router (txn -> pairs +
        # their net deltas); overlaid on prepare-time validation so
        # concurrently staged transactions cannot jointly underflow.
        self._staged: dict[int, tuple[Any, dict]] = {}
        # Set while a router restore+replay is in flight: reads fail
        # fast (out of band) instead of queueing behind the backlog.
        self._recovering = False
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.AbstractServer | None = None
        self._flusher: asyncio.Task | None = None
        self._conns: set[_Connection] = set()
        self._reader_tasks: set[asyncio.Task] = set()
        self._closing = False
        self._stopping = False
        self._stopped: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ProfileServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stopped = asyncio.Event()
        self._queue = asyncio.Queue(self._queue_size)
        self._flusher = asyncio.create_task(self._flush_loop())
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._bind_port
        )
        return self

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._bind_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def profiler(self) -> Profiler:
        return self._profiler

    @property
    def stats(self) -> ServerStats:
        return self._stats

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed."""
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain: stop reading, flush + ack the queue, close.

        Idempotent; concurrent callers all return once the drain is
        done.  Wire batches already accepted into the queue are
        applied and acked; batches still in a socket buffer are not.
        """
        if self._stopping:
            await self.wait_stopped()
            return
        self._stopping = True
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._reader_tasks):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(
                *self._reader_tasks, return_exceptions=True
            )
        if self._flusher is not None:
            await self._queue.put(_STOP)
            await self._flusher
        await self._before_close_connections()
        for conn in list(self._conns):
            await conn.close()
        self._conns.clear()
        if self._stopped is not None:
            self._stopped.set()

    async def _before_close_connections(self) -> None:
        """Drain hook between the final flush and closing the writers.

        The base server has nothing left to wait for once the flusher
        drained; the cluster router overrides this to await the replica
        acks still in flight so every accepted wire batch is acked
        before the client sockets close."""

    async def __aenter__(self) -> "ProfileServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- readers -------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        conn = _Connection(self, reader, writer)
        self._conns.add(conn)
        self._stats.connections_total += 1
        task = asyncio.current_task()
        self._reader_tasks.add(task)
        await conn.send(pack_frame(self._greeting()))
        close_enqueued = False
        try:
            while conn.alive and not self._closing:
                try:
                    item = await self._read_request(conn)
                except ProtocolError as exc:
                    # Framing is broken — there is no resynchronizing a
                    # length-prefixed stream.  Flush what the client
                    # already has queued, report, close.
                    await self._enqueue(_Item("reject", conn, None, exc))
                    await self._enqueue(_Item("close", conn, None))
                    close_enqueued = True
                    return
                if item is None:
                    return
                if item.kind == "health":
                    # Health is the liveness probe: answered here, out
                    # of band, never through the (possibly backed-up)
                    # pipeline — that immediacy is its entire point.
                    # Pipelining clients match responses by id, so the
                    # reordering past queued requests is safe; it is
                    # also the documented deviation from the otherwise
                    # strictly ordered wire contract.
                    await conn.send(
                        self._pack_response(
                            conn,
                            {
                                "id": item.req_id,
                                "ok": True,
                                "health": self.health_info(),
                            },
                        )
                    )
                    continue
                if item.kind == "metrics":
                    # Metrics are a diagnostic tap like health:
                    # answered out of band by the reader so a
                    # backed-up pipeline is exactly when they still
                    # work (and the cluster router's pipeline, which
                    # rejects unknown kinds, never has to see them).
                    await conn.send(
                        self._pack_response(
                            conn,
                            {
                                "id": item.req_id,
                                "ok": True,
                                "metrics": json_sanitize(
                                    self.metrics_snapshot()
                                ),
                                "spans": self._obs.spans.snapshot(),
                            },
                        )
                    )
                    continue
                if item.kind == "trace_mark":
                    # A propagated trace marker (router -> replica):
                    # record the span against this tier's flight
                    # recorder and ack immediately, out of band — the
                    # marker documents arrival, it is not ingest.
                    mark = item.data if isinstance(item.data, dict) else {}
                    trace = mark.get("trace")
                    if isinstance(trace, str) and trace:
                        self._obs_trace_marks.inc()
                        self._obs.spans.record(
                            "server.trace_mark",
                            trace=trace[:64],
                            **{
                                k: v
                                for k, v in mark.items()
                                if isinstance(k, str)
                                and k not in ("trace", "id", "op")
                            },
                        )
                    await conn.send(
                        self._pack_response(
                            conn,
                            {
                                "id": item.req_id,
                                "ok": True,
                                "traced": isinstance(trace, str),
                            },
                        )
                    )
                    continue
                if self._recovering and item.kind in (
                    "evaluate", "describe", "checkpoint"
                ):
                    # Mid-restore reads fail fast, out of band: the
                    # pipeline holds a replay backlog and the answer
                    # would be stale-then-slow.  Typed and retryable —
                    # the replica is healing, not gone.
                    await conn.send(
                        self._pack_response(
                            conn,
                            {
                                "id": item.req_id,
                                "ok": False,
                                "error": encode_error(
                                    ReplicaRecoveringError(
                                        "replica is restoring a "
                                        "snapshot and replaying its "
                                        "journal; retry shortly"
                                    )
                                ),
                            },
                        )
                    )
                    continue
                await self._enqueue(item)
                if item.kind == "close":
                    close_enqueued = True
                    return
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # stop() cancels readers; ending the connection task
            # normally keeps asyncio's streams machinery from logging
            # the cancellation as a connection-callback error.
            pass
        finally:
            self._reader_tasks.discard(task)
            if not close_enqueued and not self._stopping:
                # EOF / error: flush this client's pending acks, then
                # close its writer, in pipeline order.
                with contextlib.suppress(asyncio.CancelledError):
                    await self._enqueue(_Item("close", conn, None))

    async def _read_request(self, conn: _Connection) -> _Item | None:
        """Read + decode one request on ``conn``'s rx codec.

        Returns ``None`` on clean EOF.  Undecodable *payloads* become
        ``reject`` items (the stream stays usable); broken *framing*
        raises :class:`ProtocolError` to the caller, which tears the
        connection down.
        """
        if conn.rx_codec == "binary":
            frame = await read_binary_frame(conn.reader, self._max_frame)
            if frame is None:
                return None
            self._stats.requests += 1
            if frame.kind == BIN_KIND_INGEST:
                return _Item("ingest", conn, frame.req, frame.payload)
            if frame.kind != BIN_KIND_JSON:
                raise ProtocolError(
                    "ack frames flow server-to-client only"
                )
            msg = frame.payload
        else:
            msg = await read_frame(conn.reader, self._max_frame)
            if msg is None:
                return None
            self._stats.requests += 1
        req_id = msg.get("id")
        first = conn.hello_window
        conn.hello_window = False
        try:
            if msg.get("op") == "hello":
                return self._decode_hello(conn, req_id, msg, first)
            return self._decode_request(conn, req_id, msg)
        except (ProtocolError, ReproError) as exc:
            return _Item("reject", conn, req_id, exc)

    def _decode_hello(self, conn, req_id, msg: dict, first: bool) -> _Item:
        if not isinstance(req_id, int) or isinstance(req_id, bool):
            raise ProtocolError(
                f"request 'id' must be an integer, got {req_id!r}"
            )
        if not first:
            raise ProtocolError(
                "hello must be the first request on a connection"
            )
        version = msg.get("version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: client {version!r}, "
                f"server {PROTOCOL_VERSION}"
            )
        trace = msg.get("trace")
        if isinstance(trace, str) and trace:
            # The hello envelope is the trace carrier for BOTH codecs
            # (binary negotiation itself rides a JSON hello): the id
            # scopes the connection, and every span this connection's
            # items produce is stamped with it.
            conn.trace = trace[:64]
            self._obs.spans.record(
                "server.hello", trace=conn.trace,
                codec=msg.get("codec"),
            )
        codec = msg.get("codec")
        if codec == "json":
            return _Item("hello", conn, req_id, "json")
        if codec != "binary":
            raise ProtocolError(
                f"unknown codec {codec!r}; offering: json"
                + (", binary" if self._binary else "")
            )
        if not self._binary:
            raise ProtocolError(
                "binary codec unavailable: this server hosts a "
                "hashable-key or approx profiler (int64 arrays cannot "
                "carry its keys)"
            )
        # Flip both directions now, in the reader: the client may
        # pipeline binary frames immediately behind its hello, and the
        # reader itself answers health out of band — flipping tx in
        # the flusher would let a health response race the flip and go
        # out as JSON on a binary connection.  The hello ack is packed
        # explicitly as JSON in _execute, and every pipelined response
        # is behind the hello item, so nothing else can jump the flip.
        conn.rx_codec = "binary"
        conn.tx_codec = "binary"
        return _Item("hello", conn, req_id, "binary")

    def _decode_request(self, conn, req_id, msg: dict) -> _Item:
        if not isinstance(req_id, int) or isinstance(req_id, bool):
            raise ProtocolError(
                f"request 'id' must be an integer, got {req_id!r}"
            )
        op = msg.get("op")
        if op == "ingest":
            pairs = decode_events(msg.get("events"), dense=self._dense)
            return _Item("ingest", conn, req_id, pairs)
        if op == "evaluate":
            queries = decode_queries(msg.get("queries"))
            return _Item("evaluate", conn, req_id, queries)
        if op in ("describe", "checkpoint", "ping", "close", "health",
                  "resume"):
            return _Item(op, conn, req_id)
        if op in ("prepare", "commit", "abort"):
            txn = msg.get("txn")
            if not isinstance(txn, int) or isinstance(txn, bool):
                raise ProtocolError(
                    f"{op} 'txn' must be an integer, got {txn!r}"
                )
            if op == "prepare":
                pairs = decode_events(
                    msg.get("events"), dense=self._dense
                )
                return _Item("prepare", conn, req_id, (txn, pairs))
            return _Item(op, conn, req_id, txn)
        if op == "restore":
            state = msg.get("state")
            if not isinstance(state, dict):
                raise ProtocolError(
                    f"restore 'state' must be a checkpoint object, got "
                    f"{type(state).__name__}"
                )
            return _Item(
                "restore",
                conn,
                req_id,
                (state, bool(msg.get("recovering", False))),
            )
        if op == "metrics":
            return _Item("metrics", conn, req_id)
        if op == "trace":
            return _Item("trace_mark", conn, req_id, msg)
        if op == "hello":
            raise ProtocolError(
                "hello must be the first request on a connection"
            )
        raise ProtocolError(f"unknown op {op!r}")

    async def _enqueue(self, item: _Item) -> None:
        if self._obs_on:
            item.t_enq = asyncio.get_running_loop().time()
        await self._queue.put(item)

    # -- the flusher ---------------------------------------------------

    async def _flush_loop(self) -> None:
        """Group commit: flush whatever queued while the last flush ran.

        The flusher never waits for a batch to fill.  Once free, it
        takes the wire batches already queued — stopping before the
        one that would push the flush past ``batch_max`` events — and
        flushes them as one.  A non-ingest item ends the group: it is
        a barrier, executed after the flush it follows.
        """
        queue = self._queue
        batch_max = self._batch_max
        item: _Item | None = None
        while True:
            if item is None:
                item = await queue.get()
            if item.kind == "stop":
                return
            if item.kind != "ingest":
                await self._execute(item)
                item = None
                continue
            group = [item]
            events = len(item.data)
            item = None
            while events < batch_max:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt.kind != "ingest" or events + len(nxt.data) > batch_max:
                    item = nxt  # starts the next round
                    break
                group.append(nxt)
                events += len(nxt.data)
            await self._flush(group)

    async def _flush(self, batch: list[_Item]) -> None:
        """Apply one coalesced flush and ack every wire batch in it."""
        if not batch:
            return
        # Delay-only by convention: an exception raised here would kill
        # the flusher task outright; schedules that want a *failure* in
        # a replica flush target "service.execute" (whose errors become
        # error responses) or crash the whole process externally.
        await fault_point("service.flush")
        stats = self._stats
        stats.flushes += 1
        n_events = sum(len(item.data) for item in batch)
        stats.wire_batches += len(batch)
        stats.wire_events += n_events
        if n_events > stats.max_flush_events:
            stats.max_flush_events = n_events
        if self._obs_on:
            self._observe_flush(batch, n_events)
        outcomes = self._profiler.ingest_batches(
            [item.data for item in batch]
        )
        # One socket write per connection, acks in pipeline order.
        per_conn: dict[_Connection, list[tuple[_Item, Any]]] = {}
        for item, result in zip(batch, outcomes):
            self._seq += 1
            item.seq = self._seq
            if isinstance(result, Exception):
                stats.rejected += 1
            else:
                stats.applied_units += result
            per_conn.setdefault(item.conn, []).append((item, result))
        for conn, acks in per_conn.items():
            await conn.send(self._pack_acks(conn, acks))

    def _observe_flush(self, batch: list[_Item], n_events: int) -> None:
        """Record one coalesced flush: size histogram, per-item queue
        waits, and spans for traced connections.  Called only when obs
        is enabled, so the disabled hot path pays one bool."""
        now = asyncio.get_running_loop().time()
        self._obs_ingest_batches.inc(len(batch))
        self._obs_ingest_events.inc(n_events)
        self._obs_flush_events.observe(n_events)
        self._obs_queue_depth.set(self._queue.qsize() if self._queue else 0)
        spans = self._obs.spans
        for item in batch:
            if not item.t_enq:
                continue
            wait_ms = (now - item.t_enq) * 1000.0
            self._obs_queue_wait.observe(wait_ms)
            conn = item.conn
            trace = conn.trace if conn is not None else None
            if trace is not None:
                spans.record(
                    "server.queue_wait",
                    trace=trace,
                    ms=wait_ms,
                    events=len(item.data),
                    flush_events=n_events,
                    coalesced=len(batch),
                )

    def _pack_acks(self, conn: _Connection, acks) -> bytes:
        """Encode one flush's acks for ``conn`` as a single write.

        JSON connections get one JSON frame per ack, as before.  Binary
        connections get runs of consecutive OK acks packed into
        :data:`~repro.server.protocol.BIN_KIND_ACKS` frames — three
        int64 columns (req id, seq, applied), one header per *run*
        instead of one JSON object per ack — with rejections carried
        individually as JSON envelopes, in pipeline order.
        """
        if conn.tx_codec != "binary":
            return b"".join(
                pack_frame(self._ack_payload(item, result))
                for item, result in acks
            )
        frames: list[bytes] = []
        run: list[tuple[int, int, int]] = []
        for item, result in acks:
            if isinstance(result, Exception):
                if run:
                    frames.append(encode_binary_acks(run))
                    run = []
                frames.append(
                    encode_binary_json(self._ack_payload(item, result))
                )
            else:
                run.append((item.req_id, item.seq, result))
        if run:
            frames.append(encode_binary_acks(run))
        return b"".join(frames)

    @staticmethod
    def _ack_payload(item: _Item, result) -> dict:
        if isinstance(result, Exception):
            return {
                "id": item.req_id,
                "ok": False,
                "seq": item.seq,
                "error": encode_error(result),
            }
        return {
            "id": item.req_id,
            "ok": True,
            "applied": result,
            "seq": item.seq,
        }

    def _pack_response(self, conn: _Connection, payload: dict) -> bytes:
        """Frame one response on ``conn``'s tx codec."""
        if conn.tx_codec == "binary":
            return encode_binary_json(payload)
        return pack_frame(payload)

    async def _execute(self, item: _Item) -> None:
        """Run one non-ingest pipeline item (queries, control)."""
        conn = item.conn
        kind = item.kind
        if kind == "close":
            if item.req_id is not None:
                await conn.send(
                    self._pack_response(
                        conn,
                        {"id": item.req_id, "ok": True, "closing": True},
                    )
                )
            self._conns.discard(conn)
            await conn.close()
            return
        if kind == "reject":
            self._stats.rejected += 1
            await conn.send(
                self._pack_response(
                    conn,
                    {
                        "id": item.req_id,
                        "ok": False,
                        "error": encode_error(item.data),
                    },
                )
            )
            return
        if kind == "hello":
            # Ack explicitly in JSON — the codec the client is still
            # reading; tx already flipped at decode time (see
            # _decode_hello), so every later frame is binary.
            await conn.send(
                pack_frame(
                    {
                        "id": item.req_id,
                        "ok": True,
                        "codec": item.data,
                        "seq": self._seq,
                    }
                )
            )
            if item.data == "binary":
                self._stats.binary_connections += 1
            return
        try:
            await fault_point("service.execute")
            if kind == "evaluate":
                self._stats.queries += 1
                result = self._profiler.evaluate(*item.data)
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "values": [
                        encode_value(q.kind, v) for q, v in result
                    ],
                }
            elif kind == "describe":
                info = self._profiler.describe()
                info["server"] = self.describe_server()
                payload = {"id": item.req_id, "ok": True, "info": info}
            elif kind == "checkpoint":
                self._stats.checkpoints += 1
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "state": self._profiler.to_state(),
                }
            elif kind == "restore":
                state, recovering = item.data
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "restored": self._restore_state(
                        state, recovering=recovering
                    ),
                }
            elif kind == "prepare":
                txn, pairs = item.data
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "staged": self._stage_txn(txn, pairs),
                }
            elif kind == "commit":
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "applied": self._commit_txn(item.data),
                }
            elif kind == "abort":
                # Idempotent: aborting an unknown transaction is a
                # no-op success — the router retries aborts blindly
                # after connection loss, and a restored replica has
                # already dropped its staged copies.
                self._staged.pop(item.data, None)
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "aborted": True,
                }
            elif kind == "resume":
                self._recovering = False
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "resumed": True,
                }
            elif kind == "ping":
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "pong": True,
                    "version": PROTOCOL_VERSION,
                    "seq": self._seq,
                }
            else:  # pragma: no cover - decoder emits no other kinds
                raise ProtocolError(f"unknown pipeline item {kind!r}")
        except Exception as exc:
            self._stats.rejected += 1
            payload = {
                "id": item.req_id,
                "ok": False,
                "error": encode_error(exc),
            }
        await conn.send(self._pack_response(conn, payload))

    def _stage_txn(self, txn: int, pairs) -> int:
        """Phase 1 of a router 2PC transaction: validate and stage.

        The replica itself is non-strict (strictness is a cluster-wide
        property only the router can see whole), so prepare holds the
        batch to the facade's strict rules against the *would-be*
        state: current state plus every already-staged transaction.
        Staging applies nothing; the pairs wait in :attr:`_staged` for
        the decision.
        """
        pending: dict = {}
        for _pairs, staged_net in self._staged.values():
            for x, d in staged_net.items():
                pending[x] = pending.get(x, 0) + d
        self._staged[txn] = (pairs, self._profiler.admit(pairs, pending))
        return len(self._staged)

    def _commit_txn(self, txn: int) -> int:
        """Phase 2: apply a staged transaction."""
        staged = self._staged.pop(txn, None)
        if staged is None:
            raise ProtocolError(
                f"commit for unknown transaction {txn}; it was never "
                f"prepared here, or a restore discarded it"
            )
        pairs, _net = staged
        return self._profiler.ingest(pairs)

    def _restore_state(self, state: dict, *, recovering: bool = False) -> str:
        """Swap the hosted profiler for a checkpoint (``restore`` op).

        The recovery half of the checkpoint pair: a replacement replica
        is brought current by uploading the partition's last snapshot
        here, then replaying the journaled wire batches behind it on
        the same (ordered) connection.  Riding the pipeline makes the
        swap a natural barrier — every earlier wire batch is applied to
        the old profiler and acked before the swap, every later one
        lands on the restored state.

        The restored facade must match the hosted one on keys mode,
        strict flag and capacity: connections negotiated their codec
        against those (and the cluster's partition arithmetic depends
        on capacity), so a mismatched state is refused whole.
        """
        replacement = Profiler.from_state(state)
        current = self._profiler
        if (
            replacement.keys != current.keys
            or bool(replacement.strict) != bool(current.strict)
            or replacement.declared_capacity != current.declared_capacity
        ):
            replacement.close()
            raise CheckpointError(
                f"restore state (keys={replacement.keys!r}, "
                f"strict={replacement.strict}, "
                f"capacity={replacement.capacity}) does not match the "
                f"hosted profiler (keys={current.keys!r}, "
                f"strict={current.strict}, capacity={current.capacity})"
            )
        if _int_ids(replacement) != self._dense:
            replacement.close()
            raise CheckpointError(
                "restore would change the wire id contract "
                "(dense-keyed vs hashable) under live connections"
            )
        current.close()
        self._profiler = replacement
        # A restore rewinds time: anything staged under the old state
        # belongs to a router incarnation that no longer exists (the
        # journal replay behind this restore carries every decided
        # transaction), so staged copies are dropped wholesale.
        self._staged.clear()
        self._recovering = bool(recovering)
        self._stats.restores += 1
        return replacement.backend_name

    def _greeting(self) -> dict[str, Any]:
        """The unsolicited hello frame sent on every new connection."""
        greeting = {
            "server": "repro.server",
            "version": PROTOCOL_VERSION,
            "backend": self._profiler.backend_name,
            "keys": self._profiler.keys,
            "strict": self._profiler.strict,
            "capacity": self._profiler.capacity,
            "codecs": ["json", "binary"] if self._binary else ["json"],
        }
        if self._role != "standalone":
            greeting["role"] = self._role
        return greeting

    def health_info(self) -> dict[str, Any]:
        """The cheap liveness/progress block behind the ``health`` op.

        Everything a cluster heartbeat (or ``repro.cluster --status``)
        needs without touching the engine or the pipeline: identity,
        the applied ``seq`` high-water mark, and queue depth.
        """
        info = {
            "role": self._role,
            "partition": (
                list(self._partition) if self._partition else None
            ),
            "backend": self._profiler.backend_name,
            "keys": self._profiler.keys,
            "strict": self._profiler.strict,
            "capacity": self._profiler.capacity,
            "seq": self._seq,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "connections": len(self._conns),
            "draining": self._stopping,
            "recovering": self._recovering,
            "staged_txns": len(self._staged),
        }
        if self._obs_on:
            # The cheap registry view (no buckets, no percentile
            # math): health stays a heartbeat-priced probe.
            info["metrics"] = json_sanitize(self._obs.snapshot(False))
        return info

    def metrics_snapshot(self, detail: bool = True) -> dict[str, Any]:
        """One merged obs snapshot for this serving process.

        Refreshes the liveness gauges, then folds the server registry
        with the hosted profiler's (one snapshot when they share a
        registry — the common case — so nothing double-counts; merged
        otherwise).  The payload behind the ``metrics`` wire op and
        the Prometheus sidecar.
        """
        obs = self._obs
        if self._obs_on:
            obs.gauge("server.queue.depth").set(
                self._queue.qsize() if self._queue else 0
            )
            obs.gauge("server.connections.open").set(len(self._conns))
            obs.gauge("server.seq").set(self._seq)
        prof_snapshot = getattr(self._profiler, "metrics_snapshot", None)
        if prof_snapshot is None:
            # A profiler-shaped stub (the cluster router's facade):
            # the server registry is the whole story.
            return obs.snapshot(detail)
        if getattr(self._profiler, "obs_registry", None) is obs:
            return prof_snapshot(detail)
        return merge_snapshots(
            [obs.snapshot(detail), prof_snapshot(detail)]
        )

    def describe_server(self) -> dict[str, Any]:
        """The service block of ``describe()``: config + counters."""
        out = {
            "protocol_version": PROTOCOL_VERSION,
            "codecs": ["json", "binary"] if self._binary else ["json"],
            "batch_max": self._batch_max,
            "queue_size": self._queue_size,
            "write_timeout": self._write_timeout,
            "seq": self._seq,
            "connections_open": len(self._conns),
            **self._stats.as_dict(),
        }
        if self._role != "standalone":
            out["role"] = self._role
            out["partition"] = (
                list(self._partition) if self._partition else None
            )
        return out


# ----------------------------------------------------------------------
# Blocking-world adapter
# ----------------------------------------------------------------------


class ServerThread:
    """Run a :class:`ProfileServer` on a daemon thread's event loop.

    The bridge for synchronous callers (the blocking
    :class:`~repro.server.client.ProfileClient`, doctests, examples):

    .. code-block:: python

        with ServerThread(Profiler.open(1000)) as server:
            client = ProfileClient(server.host, server.port)

    ``host``/``port`` are set once the server is listening (the
    constructor of the context manager blocks until then); errors
    during startup re-raise in the starting thread.
    """

    def __init__(self, profiler: Profiler, **server_kwargs) -> None:
        self._profiler = profiler
        self._kwargs = server_kwargs
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self.host: str | None = None
        self.port: int | None = None

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()),
            name="repro-profile-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error
        return self

    async def _amain(self) -> None:
        try:
            server = ProfileServer(self._profiler, **self._kwargs)
            await server.start()
        except BaseException as exc:  # startup failure -> caller
            self._error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.host, self.port = server.host, server.port
        self.server = server
        self._ready.set()
        await self._stop_event.wait()
        await server.stop()

    def stop(self, timeout: float = 10.0) -> None:
        """Request the graceful drain and join the thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
