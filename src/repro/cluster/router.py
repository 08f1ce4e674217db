"""The cluster router: one wire endpoint fronting N replica servers.

:class:`ClusterRouter` subclasses :class:`~repro.server.service
.ProfileServer` and keeps its entire front half — the negotiated
codecs, the per-connection readers, the bounded queue, the
micro-batching flusher, the graceful drain.  What changes is what a
flush *does*: instead of one engine call, the router

1. range-validates each wire batch whole (the engines' exact error, so
   a bad id rejects the batch before any replica sees a byte),
   assigns its ``seq``, computes its ack value locally (net unit
   events — additive across the partition split), and appends the
   partitioned columns to the one log,
   :class:`~repro.cluster.journal.RouterWal`: its replay state is
   every partition's journal tape, and when a ``journal_dir`` is
   configured the same records reach an fsync'd segment file (one
   fsync per flush, before any fan-out byte);
2. pipelines each partition's sub-batches to its replica over the
   negotiated codec (binary where both ends support it): every
   partition's sub-batches are sent, then the flusher awaits the ack
   futures in place — one round trip per partition per flush, no Task
   per partition, bounded by ``replica_timeout`` when set;
3. acks its own clients — per connection, in pipeline order, exactly
   like the base server.

Durability and the ack contract
-------------------------------
A client ack means the batch is journaled (durably, when the WAL is
on) and delivered to every *live* partition it touches.  A partition
that times out or dies mid-flush still receives its share — by
``seq``-ordered replay when it heals — so the ack never lies; what a
slow replica costs is staleness on its partitions, not loss.  Kill the
*router* (SIGKILL included) and a cold ``ClusterRouter`` pointed at
the same ``journal_dir`` recovers the whole tier: persisted snapshots
restore each replica, the surviving log replays behind them, and every
acknowledged event is back.  New batches that touch a partition whose
circuit breaker is open are rejected *without* journaling (typed,
retryable :class:`~repro.errors.ReplicaUnavailableError`), so a client
retry can never double-count.

Strict mode (cross-partition two-phase commit)
----------------------------------------------
With ``strict=True`` every wire batch is all-or-nothing across the
partitions it spans.  Replicas stay plain non-strict dense profilers;
atomicity is the router's: it sends each touched replica a ``prepare``
(the replica validates strict-mode underflow against its state plus
already-staged transactions, and stages the sub-batch), writes the
commit/abort decision to the WAL (the commit point), then sends phase
two.  A replica crash between the phases is safe in both directions:
an undecided transaction is dropped at replay (no replica applied it —
commits are only sent after the decision record is durable), a decided
one replays from the journal whatever the replica saw.

Queries merge replica answers with the pure functions of
:mod:`repro.engine.merge`, over whichever partitions answered;
``checkpoint`` folds the replica checkpoints into one single-core
facade state over the whole universe, restorable by
``Profiler.from_state`` anywhere.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
from typing import Any

from repro.api.facade import API_STATE_VERSION, Profiler
from repro.api.plan import Query
from repro.cluster.journal import RouterWal
from repro.cluster.merge import partition_batch, repartition_states
from repro.core.checkpoint import fold_partition_states, profile_to_state
from repro.engine import merge
from repro.errors import (
    CapacityError,
    CheckpointError,
    ClusterUnhealthyError,
    FencedWriterError,
    ReplicaUnavailableError,
    WalCommitError,
)
from repro.obs.registry import LATENCY_MS_BOUNDS
from repro.server.client import AsyncProfileClient
from repro.server.protocol import ProtocolError, encode_error, encode_value
from repro.server.service import ProfileServer, _Item
from repro.testing.faults import SimulatedCrash, fault_point

__all__ = ["ClusterRouter", "partition_capacity"]


def partition_capacity(m: int, p: int, n_parts: int) -> int:
    """Capacity of partition ``p``: its share of ``x % n_parts`` ids."""
    return (m - p + n_parts - 1) // n_parts


def _drop_outcome(future: asyncio.Future) -> None:
    """Retrieve a fire-and-forget reply's outcome, so a failure is
    dropped quietly instead of logged as never retrieved."""
    if not future.cancelled():
        future.exception()


class _RouterFacade:
    """The profiler-shaped stub the base server introspects.

    The router hosts no engine — state lives in the replicas — but the
    base class reads identity off its profiler (greeting, codec
    negotiation, health).  The overridden ``_flush`` partitions and
    fans out instead of ingesting, so the stub takes no batches.
    """

    backend_name = "cluster"
    keys = "dense"

    def __init__(self, capacity: int, strict: bool = False) -> None:
        self.capacity = capacity
        self.strict = bool(strict)

    def close(self) -> None:
        """Nothing to release; replicas own the state."""


class ClusterRouter(ProfileServer):
    """Route one dense universe over ``len(endpoints)`` replicas.

    Parameters (beyond the :class:`ProfileServer` serving knobs)
    ----------------------------------------------------------------
    capacity:
        The global universe size ``m``; partition ``p`` owns ids
        congruent to ``p`` and must serve a profiler of capacity
        ``partition_capacity(m, p, n)``.
    endpoints:
        ``(host, port)`` per partition, in partition order.
    supervisor:
        Optional replica lifecycle manager (duck-typed: an async
        ``ensure_replica(p) -> (host, port)`` that respawns a dead
        replica and returns its current endpoint).  Without one,
        recovery redials the configured endpoint and waits for an
        external restart.
    replica_codec:
        Codec negotiated with replicas (``"auto"``: binary where both
        ends support it).
    snapshot_every:
        The batch floor of the snapshot rule: partition ``p`` is
        checkpointed (and its journal truncated) once its journal
        holds at least this many wire batches *and* at least
        ``partition_capacity(m, p, n)`` events (see
        :meth:`_snapshot_due`).  Replay length and router memory stay
        bounded by max(``snapshot_every`` batches, m_p events).
    recover_attempts:
        Connect-restore-replay cycles before a partition is declared
        lost (an exception that stops the router).  ``None`` retries
        forever — the right default under a supervisor.
    journal_dir:
        Directory for the durable :class:`RouterWal`.  ``None`` (the
        default) keeps the journal in memory only (``RouterWal(None)``)
        — fine when the router process itself is not a loss domain you
        care about.
    wal_sync:
        ``False`` keeps the WAL's file layout but skips the per-flush
        ``fsync`` (the ``cluster.wal_overhead`` bench knob).  Leave
        ``True`` for real durability.
    wal:
        The promotion fast path: a warm standby hands in the writer
        it built (already holding the new fencing epoch and its tail
        reader's replay state, :meth:`RouterWal.adopt`), and
        :meth:`start` skips the cold ``load()`` + lease acquisition.
        Mutually exclusive with ``journal_dir``.
    lease_interval:
        Seconds between WAL lease heartbeats (ignored without a
        fenced WAL).  The standby's failover detector keys off this
        staleness.
    strict:
        All-or-nothing wire batches across partitions via two-phase
        commit (see the module docstring).  Implies a per-batch
        sequential prepare/commit round — the strictness tax.
    replica_timeout:
        Per-partition deadline, in seconds, on each replica
        send/ack round during a flush or query.  A partition that
        blows it trips a circuit breaker: its requests fail fast with
        :class:`~repro.errors.ReplicaUnavailableError` while every
        other partition keeps serving.  ``None`` (default) preserves
        the legacy behavior — block and recover in place.
    breaker_cooldown:
        Seconds an open breaker waits before the next half-open
        probe (a bounded reconnect + restore + replay attempt).
    degraded_reads:
        With breakers open, answer aggregate queries from the live
        partitions only, marking the result ``partial=True`` —
        instead of failing the whole evaluate.  A partial answer is
        the one a profile holding only the live partitions' objects
        would give: ``total`` sums them, ``mode`` compares them, and
        every rank (``median``, ``quantile``, ``kth_most_frequent``)
        counts over the live universe, not the full capacity — a
        ``k`` beyond it raises :class:`~repro.errors.CapacityError`.
        Per-object reads on a broken partition still raise (there is
        no partial answer to ``frequency``).
    """

    def __init__(
        self,
        capacity: int,
        endpoints=None,
        *,
        supervisor=None,
        replica_codec: str = "auto",
        snapshot_every: int = 64,
        recover_attempts: int | None = None,
        journal_dir=None,
        wal_sync: bool = True,
        wal: RouterWal | None = None,
        lease_interval: float = 1.0,
        strict: bool = False,
        replica_timeout: float | None = None,
        breaker_cooldown: float = 1.0,
        degraded_reads: bool = False,
        **server_kwargs,
    ) -> None:
        if endpoints is None:
            if supervisor is None:
                raise CapacityError(
                    "ClusterRouter needs endpoints or a supervisor"
                )
            endpoints = list(supervisor.endpoints)
        endpoints = [tuple(e) for e in endpoints]
        n = len(endpoints)
        if n < 1:
            raise CapacityError("cluster needs at least one replica")
        if capacity < n:
            raise CapacityError(
                f"capacity {capacity} cannot spread over {n} replicas "
                f"(every partition needs at least one id)"
            )
        if snapshot_every < 1:
            raise CapacityError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        if replica_timeout is not None and replica_timeout <= 0:
            raise CapacityError(
                f"replica_timeout must be positive, got {replica_timeout}"
            )
        if breaker_cooldown < 0:
            raise CapacityError(
                f"breaker_cooldown must be >= 0, got {breaker_cooldown}"
            )
        if wal is not None and journal_dir is not None:
            raise CapacityError(
                "pass journal_dir or a prebuilt wal, not both"
            )
        if lease_interval <= 0:
            raise CapacityError(
                f"lease_interval must be positive, got {lease_interval}"
            )
        super().__init__(
            _RouterFacade(capacity, strict=strict),
            role="router",
            **server_kwargs,
        )
        self._n_parts = n
        self._endpoints: list[tuple[str, int]] = endpoints
        self._supervisor = supervisor
        self._replica_codec = replica_codec
        self._snapshot_every = snapshot_every
        self._recover_attempts = recover_attempts
        self._strict = bool(strict)
        self._replica_timeout = replica_timeout
        self._breaker_cooldown = breaker_cooldown
        self._degraded = bool(degraded_reads)
        #: the one journal: every partition's replay tape, snapshot
        #: state and watermark, durable when ``journal_dir`` is set.
        #: A prebuilt ``wal`` (a promoted standby's) is already loaded
        #: and leased; start() loads any other durable one.
        self._wal = (
            wal if wal is not None else RouterWal(journal_dir, sync=wal_sync)
        )
        self._cold_boot = wal is None
        self._lease_interval = lease_interval
        self._lease_task: asyncio.Task | None = None
        #: live-rescale state: None, or the in-flight migration dict
        #: (see _begin_rescale).  Only the flusher creates/commits it;
        #: the background _migrate task builds the new replica tier.
        self._migration: dict | None = None
        self._migration_task: asyncio.Task | None = None
        self._clients: dict[int, AsyncProfileClient] = {}
        self._empty_states: dict[int, dict] = {}
        #: seq high-water mark actually applied on each replica (by
        #: delivery or replay).  Snapshots are gated on it: a replica
        #: lagging its journal must not have its journal truncated.
        self._delivered = [0] * n
        #: partition -> loop time its breaker opened (absent = closed)
        self._breakers: dict[int, float] = {}
        self._crashed = False
        self.cluster_stats = {
            "recoveries": 0,
            "replayed_batches": 0,
            "snapshots": 0,
            "replica_batches": 0,
            "deadline_trips": 0,
            "breaker_rejects": 0,
            "strict_commits": 0,
            "strict_aborts": 0,
            "degraded_queries": 0,
            "rescales": 0,
        }
        # Router-tier instruments (no-op singletons when obs is off;
        # self._obs / self._obs_on come from the base server).
        obs = self._obs
        self._obs_fsync = obs.histogram(
            "router.wal.fsync_ms", LATENCY_MS_BOUNDS
        )
        self._obs_fanout = obs.histogram(
            "router.fanout.rtt_ms", LATENCY_MS_BOUNDS
        )
        self._obs_2pc_commits = obs.counter("router.2pc.commits")
        self._obs_2pc_aborts = obs.counter("router.2pc.aborts")
        self._obs_breaker_trips = obs.counter("router.breaker.trips")
        self._obs_breaker_probes = obs.counter("router.breaker.probes")
        self._obs_breaker_heals = obs.counter("router.breaker.heals")

    # -- lifecycle -----------------------------------------------------

    @property
    def n_partitions(self) -> int:
        return self._n_parts

    async def start(self) -> "ClusterRouter":
        # Replicas first: a config mismatch (wrong capacity, strict,
        # hashable keys) must fail the router before it accepts a
        # single client.  With a WAL, load the surviving log first and
        # bring every replica to the recovered state — a replica may
        # be a fresh respawn (needs snapshot + replay) or a survivor
        # of a router-only crash (holds batches past the snapshot, or
        # a staged 2PC transaction; the restore rewinds it so the
        # replay is exact, never double-counted).
        wal = self._wal
        if wal.durable:
            if self._cold_boot:
                wal.load()
                wal.acquire_lease(f"router-{os.getpid()}")
            state = wal.state
            if state.n_parts is not None and state.n_parts != self._n_parts:
                # The log ended on a rescaled layout: the boot-time
                # replica count is stale and the tier must be resized
                # before any snapshot or entry is applied.
                await self._adopt_layout(state.n_parts, state.generation)
            self._seq = max(self._seq, state.last_seq)
            for p in range(self._n_parts):
                await self._recover(p, boot=True)
        else:
            for p in range(self._n_parts):
                self._clients[p] = await self._connect_replica(p)
        await super().start()
        if wal.epoch:
            # The port is bound now: advertise it in the lease so a
            # standby can health-probe the primary, then keep the
            # lease warm — a superseded heartbeat kills the router.
            self._wal.renew_lease(endpoint=[self.host, self.port])
            self._lease_task = asyncio.create_task(self._lease_loop())
        return self

    async def _adopt_layout(self, n_new: int, generation: int) -> None:
        """Resize the replica tier to a rescaled on-disk layout."""
        sup = self._supervisor
        if sup is None or not hasattr(sup, "reconfigure"):
            raise CheckpointError(
                f"WAL layout is generation {generation} with {n_new} "
                f"partitions but the router booted with {self._n_parts} "
                f"and its supervisor cannot reconfigure the replica set"
            )
        endpoints = [
            tuple(e) for e in await sup.reconfigure(n_new, generation)
        ]
        self._reshape(n_new, endpoints)

    def _reshape(self, n: int, endpoints: list[tuple[str, int]]) -> None:
        """Swap every per-partition structure for an ``n``-wide tier.

        Callers own the old clients (abort them before or after); this
        only rebuilds the bookkeeping the partition arithmetic hangs
        off.
        """
        if len(endpoints) != n:
            raise CapacityError(
                f"layout wants {n} partitions but got "
                f"{len(endpoints)} endpoints"
            )
        if self.capacity < n:
            raise CapacityError(
                f"capacity {self.capacity} cannot spread over {n} "
                f"replicas"
            )
        self._n_parts = n
        self._endpoints = endpoints
        self._empty_states = {}
        self._delivered = [0] * n
        self._breakers = {}
        self._clients = {}

    async def _lease_loop(self) -> None:
        """Heartbeat the WAL lease.

        A renewal that finds a higher epoch in the lease file means a
        standby promoted over us while we were idle (no flush ran to
        trip the per-sync fence check): die immediately rather than
        accept one more batch for a directory we no longer own.
        """
        try:
            while True:
                await asyncio.sleep(self._lease_interval)
                self._wal.renew_lease()
        except FencedWriterError:
            await self._die()
        except asyncio.CancelledError:
            raise

    async def _before_close_connections(self) -> None:
        """Say goodbye to the replicas once the flusher has drained.

        By this point every accepted wire batch has been delivered and
        acked by its replicas (the flusher awaits replica acks inside
        each flush), so closing is pure teardown.  The WAL segment is
        sealed and the lease expired so a standby (or the next cold
        boot) takes over without waiting out the lease timeout.
        """
        if self._lease_task is not None:
            self._lease_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._lease_task
            self._lease_task = None
        if self._migration_task is not None:
            self._migration_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._migration_task
            self._migration_task = None
        if self._migration is not None:
            for client in self._migration["clients"].values():
                client.abort()
            self._migration = None
        for client in self._clients.values():
            try:
                await client.aclose()
            except (ConnectionError, OSError):
                pass
        self._clients.clear()
        self._wal.release_lease()
        self._wal.close()

    async def _die(self) -> None:
        """In-process SIGKILL: drop everything exactly as a dying
        process would — no goodbyes, no drain, no final acks.

        The conversion target for :class:`SimulatedCrash` from the
        fault-injection harness: fault schedules crash the router at
        an exact instruction, this makes the aftermath
        indistinguishable (to clients and replicas) from ``kill -9``.
        """
        self._crashed = True
        self._closing = True
        self._stopping = True
        current = asyncio.current_task()
        if self._lease_task is not None and self._lease_task is not current:
            self._lease_task.cancel()
        self._lease_task = None
        if (
            self._migration_task is not None
            and self._migration_task is not current
        ):
            self._migration_task.cancel()
        self._migration_task = None
        if self._migration is not None:
            for client in self._migration["clients"].values():
                client.abort()
            self._migration = None
        if self._server is not None:
            self._server.close()
        for task in list(self._reader_tasks):
            task.cancel()
        for conn in list(self._conns):
            conn.abort()
        self._conns.clear()
        for client in self._clients.values():
            client.abort()
        self._clients.clear()
        self._wal.abandon()
        if self._stopped is not None:
            self._stopped.set()

    @property
    def crashed(self) -> bool:
        """True once a simulated crash (or terminal failure) fired."""
        return self._crashed

    @property
    def wal_info(self) -> dict[str, Any] | None:
        """The WAL's describe block (``None`` without a WAL).

        Still readable after :meth:`stop` — the drain report uses it
        to show what was sealed and at which epoch.
        """
        return self._wal.describe() if self._wal.durable else None

    # -- replica connections -------------------------------------------

    async def _connect_replica(
        self,
        p: int,
        *,
        endpoint: tuple[str, int] | None = None,
        n_parts: int | None = None,
    ) -> AsyncProfileClient:
        """Dial partition ``p`` and validate its identity.

        ``endpoint``/``n_parts`` override the live layout so a rescale
        can dial the *new* generation's replicas (whose capacity is a
        share of the new partition count) before cutover.
        """
        host, port = (
            endpoint if endpoint is not None else self._endpoints[p]
        )
        n = n_parts if n_parts is not None else self._n_parts
        client = await AsyncProfileClient.connect(
            host,
            port,
            codec=self._replica_codec,
            reconnect=True,
            # Under a supervisor a refused dial means the process is
            # dying: go back to ensure_replica (which respawns it)
            # instead of backing off on a dead port.
            max_attempts=8 if self._supervisor is None else 2,
            # A dropped link means restore + replay (_recover), at
            # once: a transparent redial would first sit out the dial
            # backoff, then skip the restore.
            redial=False,
        )
        hello = client.hello
        expected = partition_capacity(self.capacity, p, n)
        if (
            hello.get("keys") != "dense"
            or hello.get("strict")
            or hello.get("capacity") != expected
        ):
            await client.aclose()
            raise ProtocolError(
                f"replica {p} at {host}:{port} serves "
                f"keys={hello.get('keys')!r} strict={hello.get('strict')!r} "
                f"capacity={hello.get('capacity')!r}; partition {p}/"
                f"{n} of universe {self.capacity} needs a "
                f"dense non-strict profiler of capacity {expected}"
            )
        return client

    @property
    def capacity(self) -> int:
        return self._profiler.capacity

    async def _ensure_client(self, p: int) -> AsyncProfileClient:
        client = self._clients.get(p)
        if client is None:
            await self._recover(p)
            client = self._clients[p]
        return client

    def _empty_state(self, p: int, hello: dict) -> dict:
        """The reset target for a partition with no snapshot yet.

        Recovery must *always* rewind before replaying: a replica that
        survived with applied state (transient connection loss, or a
        router-only crash) would double-count a bare replay.  With no
        snapshot on file the rewind target is the empty profile, built
        with the replica's own backend so the restored facade matches
        identity checks exactly.
        """
        state = self._empty_states.get(p)
        if state is None:
            profiler = Profiler.open(
                partition_capacity(self.capacity, p, self._n_parts),
                backend=hello.get("backend", "flat"),
            )
            try:
                state = profiler.to_state()
            finally:
                profiler.close()
            self._empty_states[p] = state
        return state

    async def _recover(
        self, p: int, *, attempts: int | None = None, boot: bool = False
    ) -> None:
        """Bring partition ``p`` back: respawn, restore, replay.

        The one recovery move, whatever the failure looked like: a new
        connection, the partition rewound to its last snapshot (or the
        empty profile — wiping anything the old process half-applied
        or staged, which is what makes a send racing a crash
        harmless), then the journal replayed in ``seq`` order.  The
        restore is flagged ``recovering`` so queries hitting the
        replica directly fail fast instead of queueing behind the
        replay backlog; a final ``resume`` reopens it.  Runs in the
        flusher task, so the journal cannot grow underneath the
        replay; client readers stall on the bounded queue meanwhile —
        recovery *is* the backpressure.
        """
        if not boot:
            self.cluster_stats["recoveries"] += 1
        if attempts is None:
            attempts = self._recover_attempts
        stale = self._clients.pop(p, None)
        if stale is not None:
            stale.abort()
        state = self._wal.state
        attempt = 0
        while True:
            attempt += 1
            try:
                if self._supervisor is not None:
                    self._endpoints[p] = tuple(
                        await self._supervisor.ensure_replica(p)
                    )
                client = await self._connect_replica(p)
                snapshot = state.snapshots.get(p)
                if snapshot is None:
                    snapshot = self._empty_state(p, client.hello)
                await client.restore(snapshot, recovering=True)
                tape = [(e.ids, e.deltas) for e in state.entries.get(p, ())]
                await self._settle(await self._send_chunks(client, tape))
                replayed = len(tape)
                await client.resume()
                self.cluster_stats["replayed_batches"] += replayed
                self._clients[p] = client
                self._delivered[p] = max(
                    self._delivered[p], state.watermark(p)
                )
                return
            except (ConnectionError, OSError):
                if attempts is not None and attempt >= attempts:
                    raise ConnectionError(
                        f"partition {p} unrecoverable after {attempt} "
                        f"restore+replay attempts"
                    )

    # -- the circuit breaker -------------------------------------------

    def _breaker_ready(self, p: int) -> bool:
        """Is partition ``p``'s open breaker due a half-open probe?"""
        opened = self._breakers.get(p)
        if opened is None:
            return True
        loop = asyncio.get_running_loop()
        return loop.time() - opened >= self._breaker_cooldown

    def _trip(self, p: int) -> None:
        """Open partition ``p``'s breaker and drop its connection."""
        self._breakers[p] = asyncio.get_running_loop().time()
        self.cluster_stats["deadline_trips"] += 1
        self._obs_breaker_trips.inc()
        self._obs.spans.record("router.breaker_trip", partition=p)
        client = self._clients.pop(p, None)
        if client is not None:
            client.abort()

    async def _probe(self, p: int) -> bool:
        """One bounded half-open attempt to heal partition ``p``.

        Bounded twice over: a single connect-restore-replay cycle, and
        a hard wall-clock cap — a SIGSTOP'd replica accepts the TCP
        connection and then answers nothing, so an unbounded probe
        would hang the flusher, which is exactly what the deadline
        machinery exists to prevent.
        """
        budget = max(4.0 * (self._replica_timeout or 0.5), 2.0)
        self._obs_breaker_probes.inc()
        try:
            await asyncio.wait_for(
                self._recover(p, attempts=1), budget
            )
        except (ConnectionError, OSError, ProtocolError,
                asyncio.TimeoutError):
            self._breakers[p] = asyncio.get_running_loop().time()
            stale = self._clients.pop(p, None)
            if stale is not None:
                stale.abort()
            return False
        self._breakers.pop(p, None)
        self._obs_breaker_heals.inc()
        return True

    async def _gate(self, p: int, probed: set[int]) -> bool:
        """Admission check for partition ``p``: closed, or heals now.

        Returns ``True`` when the partition is usable.  Probes at most
        once per flush per partition (``probed`` memoizes) so a dead
        replica costs one bounded attempt, not one per wire batch.
        """
        if p not in self._breakers:
            return True
        if not self._breaker_ready(p) or p in probed:
            return False
        probed.add(p)
        return await self._probe(p)

    def _unavailable(self, p: int) -> ReplicaUnavailableError:
        return ReplicaUnavailableError(
            f"partition {p} is unavailable (circuit breaker open; "
            f"replica down or past its {self._replica_timeout}s "
            f"deadline); nothing from this request was journaled — "
            f"retry after the partition heals"
        )

    async def _replica_failed(self, p: int) -> None:
        """A replica op failed: recover in place, or fail fast.

        Legacy mode (no ``replica_timeout``) blocks right here until
        the partition is back — recovery is the backpressure.  With a
        deadline configured the failure trips the breaker instead and
        the caller surfaces a typed, retryable error; healing happens
        on the next cooldown-gated probe.
        """
        if self._replica_timeout is None:
            await self._recover(p)
        else:
            self._trip(p)

    async def _replica_call(self, p: int, fn):
        """Run one replica request under the breaker + deadline rules."""
        if p in self._breakers:
            if not self._breaker_ready(p) or not await self._probe(p):
                raise self._unavailable(p)
        for retry in (False, True):
            client = await self._ensure_client(p)
            try:
                if self._replica_timeout is not None:
                    return await asyncio.wait_for(
                        fn(client), self._replica_timeout
                    )
                return await fn(client)
            except asyncio.TimeoutError:
                self._trip(p)
                raise self._unavailable(p) from None
            except (ConnectionError, OSError):
                if self._replica_timeout is not None:
                    self._trip(p)
                    raise self._unavailable(p) from None
                if retry:
                    raise
                await self._recover(p)
        raise AssertionError("unreachable")  # pragma: no cover

    def _wal_sync(self, wal) -> None:
        """One ack-gating fsync, timed into the fsync histogram."""
        if not wal.durable:
            return
        if self._obs_on:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            wal.sync()
            self._obs_fsync.observe((loop.time() - t0) * 1e3)
        else:
            wal.sync()

    @staticmethod
    async def _send_batch(
        client: AsyncProfileClient, ids, deltas, drain: bool = True
    ):
        """One partitioned column pair -> one replica ingest, sent.

        Returns the pending ack (a future): callers send a whole run
        of chunks before awaiting any of them.
        """
        if client.codec == "binary":
            return await client.ingest(
                (ids, deltas), wait=False, drain=drain
            )
        ids = ids.tolist() if hasattr(ids, "tolist") else list(ids)
        deltas = (
            deltas.tolist() if hasattr(deltas, "tolist") else list(deltas)
        )
        return await client.ingest(
            list(zip(ids, deltas)), wait=False, drain=drain
        )

    @classmethod
    async def _send_chunks(
        cls, client, chunks, *, drain: bool = True
    ) -> list[asyncio.Future]:
        """Pipeline ``chunks`` to one replica; return the pending acks.

        One round trip per partition per flush instead of one per
        chunk; the replica's group commit coalesces what arrives
        together.  Chunks stay separate wire batches (the replica's
        ``ingest_batches`` keeps their coalesced flush
        sequential-equivalent).  ``drain=False`` never suspends on the
        transport (see :meth:`_fan_out`); replay and the rescale drain
        keep the drain as their backpressure.  A send that fails cancels the acks
        already pending, so a lost connection leaves no orphan futures.
        """
        acks: list[asyncio.Future] = []
        try:
            for ids, deltas in chunks:
                acks.append(
                    await cls._send_batch(client, ids, deltas, drain)
                )
        except BaseException:
            for ack in acks:
                ack.cancel()
            raise
        return acks

    @staticmethod
    async def _settle(acks, deadline: float | None = None) -> None:
        """Await pending acks in place, oldest first.

        No Task per partition: the flusher suspends on the futures
        themselves.  ``deadline`` (loop time) bounds the wait with
        :func:`asyncio.wait` and raises :class:`asyncio.TimeoutError`
        when acks are still missing at it.  Whatever happens, acks
        still pending on exit are cancelled.
        """
        try:
            if deadline is not None:
                late = [ack for ack in acks if not ack.done()]
                if late:
                    loop = asyncio.get_running_loop()
                    _done, late = await asyncio.wait(
                        late, timeout=max(0.0, deadline - loop.time())
                    )
                    if late:
                        raise asyncio.TimeoutError
            for ack in acks:
                await ack
        finally:
            for ack in acks:
                ack.cancel()

    # -- the flusher: partition, journal, fan out, ack ------------------

    async def _flush(self, batch: list[_Item]) -> None:
        try:
            await self._flush_cluster(batch)
        except SimulatedCrash:
            # The harness scheduled process death at a fault point
            # inside this flush.  Die exactly like SIGKILL would —
            # connections aborted, no acks, WAL as it lay — and end
            # the flusher without tripping asyncio's unhandled-error
            # reporting (the crash is the scenario, not a bug).
            await self._die()
            raise asyncio.CancelledError from None
        except ClusterUnhealthyError:
            # The supervisor escalated: a replica is dying faster than
            # recovery can help.  Terminal by contract — stop serving
            # rather than accept batches that cannot be delivered.
            await self._die()
            raise asyncio.CancelledError from None
        except FencedWriterError:
            # A promoted standby superseded our lease: the fence check
            # runs before the ack-gating fsync, so nothing in this
            # flush was (or ever will be) acked.  Die like SIGKILL —
            # the new epoch's owner serves; clients fail over to it.
            await self._die()
            raise asyncio.CancelledError from None

    async def _flush_cluster(self, batch: list[_Item]) -> None:
        if not batch:
            return
        await fault_point("router.flush")
        stats = self._stats
        stats.flushes += 1
        n_events = sum(len(item.data) for item in batch)
        stats.wire_batches += len(batch)
        stats.wire_events += n_events
        if n_events > stats.max_flush_events:
            stats.max_flush_events = n_events
        if self._obs_on:
            # The base server's flush accounting (ingest counters,
            # coalesce histograms, queue-wait spans) applies verbatim
            # at the routing tier — same queue, same wire batches.
            self._observe_flush(batch, n_events)
        outcomes: list[tuple[_Item, Any]] = []
        traced: list[tuple[_Item, tuple[int, ...]]] = []
        pending: dict[int, list[tuple]] = {}
        flush_last: dict[int, int] = {}
        touched: set[int] = set()
        probed: set[int] = set()
        wal = self._wal
        mig = self._migration
        for item in batch:
            self._seq += 1
            item.seq = self._seq
            try:
                parts, applied = partition_batch(
                    item.data, self._n_parts, self.capacity
                )
            except Exception as exc:
                outcomes.append((item, exc))
                continue
            blocked = None
            for p in parts:
                if not await self._gate(p, probed):
                    blocked = p
                    break
            if blocked is not None:
                # Rejected un-journaled: the typed error promises the
                # client a retry is safe, which is only true if no
                # partition applies any of it now or at replay.
                self.cluster_stats["breaker_rejects"] += 1
                outcomes.append((item, self._unavailable(blocked)))
                continue
            if self._strict:
                try:
                    await self._commit_strict(item.seq, parts)
                except (SimulatedCrash, asyncio.CancelledError):
                    raise
                except Exception as exc:
                    outcomes.append((item, exc))
                    continue
                for p in parts:
                    touched.add(p)
                if mig is not None:
                    self._double_write(mig, item.data)
                if self._obs_on and item.conn.trace:
                    traced.append((item, tuple(parts)))
                outcomes.append((item, applied))
                continue
            for p, (ids, deltas) in parts.items():
                wal.append_entry(p, item.seq, ids, deltas)
                pending.setdefault(p, []).append((ids, deltas))
                flush_last[p] = item.seq
                touched.add(p)
            if mig is not None:
                self._double_write(mig, item.data)
            if self._obs_on and item.conn.trace:
                traced.append((item, tuple(parts)))
            outcomes.append((item, applied))
        if wal.durable and pending:
            await fault_point("router.journal")
            self._wal_sync(wal)
        if pending:
            await fault_point("router.fanout")
            await self._fan_out(pending, flush_last)
        await fault_point("router.acks")
        per_conn: dict[Any, list[tuple[_Item, Any]]] = {}
        for item, result in outcomes:
            if isinstance(result, Exception):
                stats.rejected += 1
            else:
                stats.applied_units += result
            per_conn.setdefault(item.conn, []).append((item, result))
        for conn, acks in per_conn.items():
            await conn.send(self._pack_acks(conn, acks))
        if traced:
            await self._trace_flush(traced)
        for p in sorted(touched):
            if self._snapshot_due(p):
                await self._snapshot(p)

    def _snapshot_due(self, p: int) -> bool:
        """Has partition ``p``'s journal earned an O(m_p) snapshot?

        Both floors must hold: ``snapshot_every`` wire batches, and as
        many journalled events as the partition has keys.  A snapshot
        costs Theta(m_p) (checkpoint, encode, fsync), so paying it at
        most once per m_p events keeps it O(1) per event, while replay
        after a crash stays within max(``snapshot_every`` batches,
        m_p events) — the same order of work as the restore itself.
        """
        state = self._wal.state
        tape = state.entries.get(p)
        return (
            tape is not None
            and len(tape) >= self._snapshot_every
            and state.events[p]
            >= partition_capacity(self.capacity, p, self._n_parts)
        )

    async def _trace_flush(self, traced) -> None:
        """Stamp traced batches into the span log and the replicas.

        For every traced wire batch in the flush: one ``router.flush``
        span (queue-to-ack latency against the enqueue stamp) and one
        best-effort ``trace`` mark forwarded to each partition the
        batch touched, so the replica's own span log carries the
        client's id.  Marks are pipelined like ingest chunks and never
        awaited: the flusher moves on as soon as they are written, and
        a mark that fails (or is never answered) fails silently — the
        batch is already acked; tracing is observability, not delivery.
        """
        loop = asyncio.get_running_loop()
        for item, parts in traced:
            trace = item.conn.trace
            ms = (
                round((loop.time() - item.t_enq) * 1e3, 3)
                if item.t_enq
                else None
            )
            self._obs.spans.record(
                "router.flush",
                trace=trace,
                ms=ms,
                seq=item.seq,
                partitions=sorted(parts),
            )
            for p in parts:
                client = self._clients.get(p)
                if client is None:
                    continue
                try:
                    mark = await client.submit(
                        "trace", trace=trace, source="router",
                        seq=item.seq,
                    )
                except Exception:
                    continue
                mark.add_done_callback(_drop_outcome)

    async def _fan_out(self, pending: dict, flush_last: dict) -> None:
        """Send every partition its sub-batches, then await the acks.

        All sends leave before any ack is awaited, and the flusher
        waits on the ack futures in place — no Task per partition.
        The sends do not await the transport drain: a replica acks a
        sub-batch only after reading it, and this flush settles every
        ack (or trips the partition, which drops its connection)
        before the next flush sends, so at most one flush's bytes wait
        in a replica's buffer, and one replica that stops reading
        cannot hold up the sends to the others.

        Under a deadline (taken before the first send) each
        partition's sends and acks must land within
        ``replica_timeout`` or its breaker trips — the batch is still
        acked to the client (it is journaled; replay delivers it when
        the partition heals), but *new* batches for this partition
        fail fast until then.  On connection loss there is nothing to
        resend: the journal already holds this flush's entries, so
        :meth:`_replica_failed`'s restore + replay applies them — run
        once every other partition has settled.
        """
        loop = asyncio.get_running_loop()
        deadline = (
            None
            if self._replica_timeout is None
            else loop.time() + self._replica_timeout
        )
        rounds: list[tuple[int, list[asyncio.Future]]] = []
        failed: list[int] = []
        try:
            for p, chunks in pending.items():
                try:
                    client = self._clients.get(p)
                    if client is None:
                        # A partition with no live connection dials and
                        # restores first, inside the deadline.
                        async with asyncio.timeout_at(deadline):
                            client = await self._ensure_client(p)
                    t0 = loop.time()
                    # Never suspends: no drain, no redial.
                    acks = await self._send_chunks(
                        client, chunks, drain=False
                    )
                except asyncio.TimeoutError:
                    self._trip(p)
                    continue
                except (ConnectionError, OSError):
                    failed.append(p)
                    continue
                if self._obs_on:
                    # Send to the partition's last ack, stamped when
                    # that ack resolves — not when the flusher gets to
                    # it behind earlier partitions.
                    acks[-1].add_done_callback(
                        functools.partial(self._observe_rtt, t0)
                    )
                rounds.append((p, acks))
            for p, acks in rounds:
                try:
                    await self._settle(acks, deadline)
                except asyncio.TimeoutError:
                    self._trip(p)
                    continue
                except (ConnectionError, OSError):
                    failed.append(p)
                    continue
                self.cluster_stats["replica_batches"] += len(acks)
                self._delivered[p] = max(self._delivered[p], flush_last[p])
        finally:
            for _p, acks in rounds:
                for ack in acks:
                    ack.cancel()
        for p in failed:
            await self._replica_failed(p)

    def _observe_rtt(self, t0: float, ack: asyncio.Future) -> None:
        if not ack.cancelled() and ack.exception() is None:
            self._obs_fanout.observe(
                (asyncio.get_running_loop().time() - t0) * 1e3
            )

    async def _commit_strict(self, seq: int, parts: dict) -> None:
        """One all-or-nothing wire batch across ``parts`` (2PC).

        Phase 1 stages the sub-batches (each replica validates
        strict-mode underflow against live state + staged overlay);
        the decision record hitting the WAL is the commit point;
        phase 2 applies.  A failure anywhere in phase 1 aborts
        everywhere — journaling the abort first, so a router crash
        mid-abort replays as an abort, never a half-commit.
        """
        wal = self._wal
        ordered = sorted(parts.items())
        for p, (ids, deltas) in ordered:
            wal.append_entry(p, seq, ids, deltas, prepared=True)
        self._wal_sync(wal)
        await fault_point("router.prepare")
        staged: list[int] = []
        try:
            for p, (ids, deltas) in ordered:
                await self._replica_call(
                    p,
                    lambda client, ids=ids, deltas=deltas: client.prepare(
                        seq, ids, deltas
                    ),
                )
                staged.append(p)
        except BaseException as exc:
            aborting = isinstance(exc, Exception)
            if aborting:
                wal.append_decision(seq, parts.keys(), commit=False)
                self._wal_sync(wal)
            await fault_point("router.abort")
            for p in staged:
                with contextlib.suppress(Exception):
                    await self._replica_call(
                        p, lambda client: client.abort_txn(seq)
                    )
            if aborting:
                self.cluster_stats["strict_aborts"] += 1
                self._obs_2pc_aborts.inc()
            raise
        # The commit decision moves the staged entries onto the tape, so
        # recovery replays them if a phase-2 send fails.
        wal.append_decision(seq, parts.keys(), commit=True)
        self._wal_sync(wal)
        await fault_point("router.commit")
        for p, _cols in ordered:
            try:
                await self._replica_call(
                    p, lambda client: client.commit_txn(seq)
                )
                self._delivered[p] = max(self._delivered[p], seq)
            except (ReplicaUnavailableError, ConnectionError, OSError):
                # Decided — the journal delivers it at replay.  The
                # recover path (restore + replay) also clears the
                # replica's staged copy, so nothing double-applies.
                pass
            except ProtocolError:
                # A replica that died between the decision and this
                # send was recovered inline by _replica_call: the
                # restore wiped its staged copy and the journal replay
                # (whose tape already holds this entry) delivered the
                # events — so the retried commit finds no transaction.
                # Benign exactly when the replay watermark covers seq.
                if self._delivered[p] < seq:
                    raise
        self.cluster_stats["strict_commits"] += 1
        self._obs_2pc_commits.inc()

    async def _snapshot(self, p: int) -> None:
        """Checkpoint partition ``p`` and truncate its journal.

        The checkpoint request rides the replica's ordered connection
        behind everything this flusher already sent, so the returned
        state covers every journal entry — checked before the WAL
        applies the coverage rule.  Gated on the delivery watermark: a
        partition that is lagging its journal (breaker open, replay
        pending) must keep its tape — truncating would turn lag into
        loss.  A connection
        lost mid-checkpoint just recovers; the journal stays and the
        snapshot retries after a later flush.
        """
        wal = self._wal
        watermark = wal.state.watermark(p)
        if self._delivered[p] < watermark or p in self._breakers:
            return
        await fault_point("router.snapshot")
        try:
            state = await self._replica_call(
                p, lambda client: client.checkpoint()
            )
        except (ReplicaUnavailableError, ConnectionError, OSError):
            return
        last = wal.state.watermark(p)
        if last > watermark:
            # The pipeline is synchronous, so nothing can append while
            # the checkpoint is out; a snapshot that misses part of
            # the tape would turn it into loss.
            raise ValueError(
                f"snapshot at seq {watermark} does not cover journal "
                f"tail at seq {last}"
            )
        wal.note_snapshot(p, watermark, state)
        self.cluster_stats["snapshots"] += 1

    # -- live rebalancing: rescale(n) ----------------------------------

    async def _begin_rescale(self, item: _Item) -> None:
        """Phase A of a live rescale, inside the flusher barrier.

        Validates the request, checkpoints every old partition (those
        states are the migration base: the barrier guarantees they
        cover exactly the acked stream so far), and opens the
        double-write epoch.  The client response is deferred to
        cutover (or abort) — ``rescale`` acks only once the new
        layout actually serves.
        """
        await fault_point("router.rescale")
        new_n = item.data
        try:
            if self._migration is not None:
                raise ReplicaUnavailableError(
                    "a rescale is already in flight; retry after it "
                    "completes"
                )
            if new_n < 1:
                raise CapacityError(
                    f"rescale needs at least one replica, got {new_n}"
                )
            if new_n == self._n_parts:
                raise CapacityError(
                    f"cluster already runs {new_n} partitions"
                )
            if self.capacity < new_n:
                raise CapacityError(
                    f"capacity {self.capacity} cannot spread over "
                    f"{new_n} replicas (every partition needs at "
                    f"least one id)"
                )
            sup = self._supervisor
            if sup is None or not hasattr(sup, "spawn_generation"):
                raise CheckpointError(
                    "rescale needs a supervisor able to spawn a new "
                    "replica generation"
                )
            for p in range(self._n_parts):
                if p in self._breakers or (
                    self._delivered[p] < self._wal.state.watermark(p)
                ):
                    raise ReplicaUnavailableError(
                        f"partition {p} is lagging or circuit-broken; "
                        f"rescale needs a fully caught-up tier — "
                        f"retry after it heals"
                    )
            states = []
            for p in range(self._n_parts):
                states.append(
                    await self._replica_call(
                        p, lambda client: client.checkpoint()
                    )
                )
        except (SimulatedCrash, FencedWriterError, asyncio.CancelledError):
            raise
        except Exception as exc:
            self._stats.rejected += 1
            await item.conn.send(
                self._pack_response(
                    item.conn,
                    {
                        "id": item.req_id,
                        "ok": False,
                        "error": encode_error(exc),
                    },
                )
            )
            return
        self._migration = {
            "generation": self._wal.generation + 1,
            "new_n": new_n,
            #: per-new-partition double-written column chunks; the
            #: flusher appends, _migrate/_cutover consume by index.
            "pending": [[] for _ in range(new_n)],
            "consumed": [0] * new_n,
            "start_seq": self._seq,
            "states": states,
            "endpoints": None,
            "clients": {},
            "item": item,
        }
        self._migration_task = asyncio.create_task(self._migrate())

    def _double_write(self, mig: dict, data) -> None:
        """Mirror one accepted wire batch into the handoff epoch.

        Buffered in memory only, never WAL'd: a crash mid-migration
        recovers the *old* layout (the RESCALE record is the only
        commit point), whose WAL already covers every double-written
        event.
        """
        parts, _applied = partition_batch(
            data, mig["new_n"], self.capacity
        )
        for q, (ids, deltas) in parts.items():
            mig["pending"][q].append((ids, deltas))

    async def _migrate(self) -> None:
        """Background half of a rescale: build the new generation.

        Runs concurrently with ingest (the double-write buffers what
        happens meanwhile) and queries (still served by the old
        owners).  Once the new tier is restored and caught up on the
        buffer, it enqueues the ``rescale_commit`` barrier item; the
        flusher then performs the cutover with no ingest in flight.
        """
        mig = self._migration
        try:
            endpoints = await self._supervisor.spawn_generation(
                mig["new_n"]
            )
            mig["endpoints"] = [tuple(e) for e in endpoints]
            new_states = await asyncio.to_thread(
                repartition_states,
                mig["states"],
                mig["new_n"],
                self.capacity,
            )
            for q in range(mig["new_n"]):
                client = await self._connect_replica(
                    q,
                    endpoint=mig["endpoints"][q],
                    n_parts=mig["new_n"],
                )
                mig["clients"][q] = client
                await client.restore(new_states[q], recovering=True)
            await self._drain_pending(mig)
            await self._enqueue(_Item("rescale_commit", None, None))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            await self._abort_rescale(exc)

    async def _drain_pending(self, mig: dict) -> None:
        """Replay buffered double-writes into the new replicas."""
        while True:
            progress = False
            for q, client in mig["clients"].items():
                start = mig["consumed"][q]
                chunks = mig["pending"][q][start:]
                if chunks:
                    await self._settle(
                        await self._send_chunks(client, chunks)
                    )
                    mig["consumed"][q] = start + len(chunks)
                    progress = True
            if not progress:
                return

    async def _cutover(self) -> None:
        """Commit a rescale; the flusher barrier makes it atomic.

        No ingest is in flight here, so the final buffer drain makes
        the new generation exactly current.  The WAL's RESCALE record
        is the durable commit point: a crash before it recovers the
        old layout (double-writes were memory-only), a crash after it
        boots the new one from the generation snapshots.  Queries
        were answered by the old owners up to this very item and by
        the new ones from the next — never by a half-migrated mix.
        """
        mig = self._migration
        if mig is None:
            return  # aborted while the commit item sat in the queue
        item = mig["item"]
        new_n = mig["new_n"]
        generation = mig["generation"]
        try:
            await fault_point("router.cutover")
            await self._drain_pending(mig)
            states = []
            for q in range(new_n):
                await mig["clients"][q].resume()
                states.append(await mig["clients"][q].checkpoint())
            for q in range(new_n):
                self._wal.note_generation_snapshot(
                    generation, q, self._seq, states[q]
                )
            self._wal.commit_rescale(generation, new_n, self._seq)
        except (
            SimulatedCrash,
            FencedWriterError,
            WalCommitError,
            asyncio.CancelledError,
        ):
            raise
        except Exception as exc:
            await self._abort_rescale(exc)
            return
        # Committed.  Swap the serving fabric; nothing below may fail
        # the rescale anymore.
        old_clients = self._clients
        self._reshape(new_n, mig["endpoints"])
        self._clients = dict(mig["clients"])
        self._delivered = [self._seq] * new_n
        self._migration = None
        self._migration_task = None
        for client in old_clients.values():
            client.abort()
        sup = self._supervisor
        if sup is not None and hasattr(sup, "commit_generation"):
            with contextlib.suppress(Exception):
                await sup.commit_generation()
        self.cluster_stats["rescales"] += 1
        await item.conn.send(
            self._pack_response(
                item.conn,
                {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "partitions": new_n,
                    "generation": generation,
                },
            )
        )

    async def _abort_rescale(self, exc: Exception) -> None:
        """Tear down a failed migration; the old layout never stopped
        serving, so the only client-visible effect is the error ack."""
        mig = self._migration
        self._migration = None
        self._migration_task = None
        if mig is None:
            return
        for client in mig["clients"].values():
            client.abort()
        sup = self._supervisor
        if sup is not None and hasattr(sup, "abort_generation"):
            with contextlib.suppress(Exception):
                await sup.abort_generation()
        item = mig["item"]
        self._stats.rejected += 1
        with contextlib.suppress(ConnectionError, OSError):
            await item.conn.send(
                self._pack_response(
                    item.conn,
                    {
                        "id": item.req_id,
                        "ok": False,
                        "error": encode_error(exc),
                    },
                )
            )

    # -- queries: merge replica answers --------------------------------

    def _decode_request(self, conn, req_id, msg: dict) -> _Item:
        if msg.get("op") == "rescale":
            if not isinstance(req_id, int) or isinstance(req_id, bool):
                raise ProtocolError(
                    f"request 'id' must be an integer, got {req_id!r}"
                )
            n = msg.get("n")
            if not isinstance(n, int) or isinstance(n, bool):
                raise ProtocolError(
                    f"rescale 'n' must be an integer, got {n!r}"
                )
            return _Item("rescale", conn, req_id, n)
        return super()._decode_request(conn, req_id, msg)

    async def _execute(self, item: _Item) -> None:
        kind = item.kind
        if kind in ("rescale", "rescale_commit"):
            # Runs outside _flush's crash converter, so convert here:
            # a fault-scheduled crash (or a fencing trip) must look
            # like SIGKILL, not an unhandled flusher error.  The
            # rescale_commit item is internal (conn=None); it must
            # never reach the generic response send below.
            try:
                if kind == "rescale":
                    await self._begin_rescale(item)
                else:
                    await self._cutover()
            except (SimulatedCrash, FencedWriterError, WalCommitError):
                await self._die()
                raise asyncio.CancelledError from None
            return
        if kind in ("close", "reject", "hello", "ping"):
            await super()._execute(item)
            return
        try:
            if kind == "evaluate":
                self._stats.queries += 1
                plan = item.data
                values, partial = await self._evaluate_cluster(plan)
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "values": [
                        encode_value(q.kind, v)
                        for q, v in zip(plan, values)
                    ],
                }
                if partial:
                    payload["partial"] = True
            elif kind == "describe":
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "info": await self._describe_cluster(),
                }
            elif kind == "checkpoint":
                self._stats.checkpoints += 1
                payload = {
                    "id": item.req_id,
                    "ok": True,
                    "seq": self._seq,
                    "state": await self._checkpoint_cluster(),
                }
            elif kind == "restore":
                raise CheckpointError(
                    "the cluster router hosts no state to restore; "
                    "replicas recover from router snapshots"
                )
            else:  # pragma: no cover - decoder emits no other kinds
                raise ProtocolError(f"unknown pipeline item {kind!r}")
        except Exception as exc:
            self._stats.rejected += 1
            payload = {
                "id": item.req_id,
                "ok": False,
                "error": encode_error(exc),
            }
        await item.conn.send(self._pack_response(item.conn, payload))

    async def _evaluate_cluster(self, plan) -> tuple[list, bool]:
        """Answer one fused plan by merging replica reads.

        Phase 1 sends every replica one fused sub-plan (the union of
        ingredient queries the merges need — deduplicated, so a
        dashboard costs one round trip per replica however many kinds
        it asks).  ``kth_most_frequent`` and ``heavy_hitters`` resolve
        their global cut from the merged phase-1 answers, then fetch
        the named objects in a second, targeted round.

        Returns ``(values, partial)``: ``partial`` is ``True`` when
        ``degraded_reads`` let the plan answer from a subset of live
        partitions (broken ones skipped) — the explicit staleness
        marker the degraded-read contract promises.  Either way the
        answers are :mod:`repro.engine.merge` over the partitions
        that answered: a partial answer is exactly what a profile
        holding only the live partitions would give, ranks included.
        """
        m = self.capacity
        n = self._n_parts
        shared: dict[str, Query] = {}
        owned: list[dict[str, Query]] = [{} for _ in range(n)]

        def need(q: Query) -> None:
            shared.setdefault(q.key, q)

        for q in plan:
            kind = q.kind
            if kind == "frequency":
                x = q.args[0]
                if not isinstance(x, int) or not 0 <= x < m:
                    raise CapacityError(
                        f"object id {x} out of range [0, {m})"
                    )
                owned[x % n].setdefault(
                    q.key, Query.frequency(x // n)
                )
            elif kind in ("median", "quantile", "kth_most_frequent"):
                need(Query.histogram())
            elif kind == "heavy_hitters":
                need(Query.histogram())
                need(Query.total())
            else:
                need(q)

        shared_list = list(shared.values())
        per_part: list[dict[str, Any] | None] = [None] * n

        async def fetch(p: int) -> None:
            # owned[] maps the *global* query key to the local-id query
            # a replica understands; answers file under the global key.
            keys = [q.key for q in shared_list] + list(owned[p].keys())
            qlist = shared_list + list(owned[p].values())
            if not qlist:
                per_part[p] = {}
                return
            try:
                result = await self._replica_call(
                    p, lambda client: client.evaluate(*qlist)
                )
            except ReplicaUnavailableError:
                # Degraded reads skip the broken partition for
                # aggregates; an owned (per-object) query has no
                # partial answer, so it still fails the plan.
                if not self._degraded or owned[p]:
                    raise
                return
            per_part[p] = dict(zip(keys, result.values))

        await asyncio.gather(*(fetch(p) for p in range(n)))
        live = [p for p in range(n) if per_part[p] is not None]
        partial = len(live) < n
        if not live:
            raise self._unavailable(next(iter(self._breakers), 0))
        if partial:
            self.cluster_stats["degraded_queries"] += 1

        def answers(key: str) -> list:
            return [(p, per_part[p][key]) for p in live]

        hist_key = Query.histogram().key
        merged_hist = None

        def histogram() -> list[tuple[int, int]]:
            nonlocal merged_hist
            if merged_hist is None:
                merged_hist = merge.merge_histograms(answers(hist_key))
            return merged_hist

        values: list[Any] = []
        for q in plan:
            kind = q.kind
            if kind == "frequency":
                values.append(per_part[q.args[0] % n][q.key])
            elif kind in ("total", "active_count", "support"):
                values.append(sum(v for _, v in answers(q.key)))
            elif kind in ("mode", "least"):
                values.append(
                    merge.merge_extremes(
                        answers(q.key), n, desc=kind == "mode"
                    )
                )
            elif kind in ("max_frequency", "min_frequency"):
                values.append(
                    merge.extreme_frequency(
                        answers(q.key), desc=kind == "max_frequency"
                    )
                )
            elif kind == "top_k":
                values.append(merge.merge_top(answers(q.key), n, q.args[0]))
            elif kind == "histogram":
                values.append(histogram())
            elif kind == "median":
                values.append(merge.median_frequency(histogram()))
            elif kind == "quantile":
                values.append(merge.quantile(histogram(), q.args[0]))
            elif kind == "kth_most_frequent":
                values.append(
                    await self._kth_cluster(answers(hist_key), q.args[0])
                )
            elif kind == "heavy_hitters":
                total = sum(v for _, v in answers(Query.total().key))
                values.append(
                    await self._heavy_hitters_cluster(
                        merge.heavy_cut(answers(hist_key), total, q.args[0])
                    )
                )
        return values, partial

    async def _kth_cluster(self, hists, k: int):
        """Ask the partition :func:`~repro.engine.merge.kth_holder`
        names for its first object at the k-th frequency."""
        _f, p, local_rank = merge.kth_holder(hists, k)
        result = await self._replica_call(
            p,
            lambda client: client.evaluate(
                Query.kth_most_frequent(local_rank)
            ),
        )
        return merge.to_global(result.values[0], p, self._n_parts)

    async def _heavy_hitters_cluster(self, cut):
        """Fetch each partition's qualifiers (its ``top_k`` at the
        :func:`~repro.engine.merge.heavy_cut` count) and merge them."""
        lists: dict[int, list] = {}

        async def fetch(p: int, k: int) -> None:
            result = await self._replica_call(
                p, lambda client: client.evaluate(Query.top_k(k))
            )
            lists[p] = result.values[0]

        await asyncio.gather(*(fetch(p, k) for p, k in cut))
        return merge.merge_top(
            [(p, lists[p]) for p, _ in cut],
            self._n_parts,
            sum(k for _, k in cut),
        )

    # -- checkpoint assembly -------------------------------------------

    async def _checkpoint_cluster(self) -> dict[str, Any]:
        """Fold the replica checkpoints into one single-core state.

        Partition ``p`` holds global id ``g = local * P + p``, so its
        frequencies fill ``freqs[p::P]`` of one dense core over the
        whole universe, on the replicas' engine (``flat`` or
        ``exact``): restorable by ``Profiler.from_state`` on any host,
        no cluster code needed.
        """
        states = await asyncio.gather(
            *(
                self._replica_call(p, lambda client: client.checkpoint())
                for p in range(self._n_parts)
            )
        )
        backends = {s.get("backend") for s in states}
        if not backends <= {"flat", "exact"} or len(backends) > 1:
            raise CheckpointError(
                f"replica backends {sorted(map(str, backends))} do not "
                f"fold into one core (serve every replica on the flat "
                f"or on the exact backend)"
            )
        backend = backends.pop()
        profiles = [s["profile"] for s in states]
        if self._strict:
            # Replicas run non-strict (strictness is cluster-wide, and
            # only the router sees whole batches), so their payloads
            # say allow_negative.  The folded state must restore to a
            # strict facade, and strict admission guarantees no
            # negative mass anywhere — flip the flags to match.
            profiles = [dict(p, allow_negative=False) for p in profiles]
        # O(m log m) of CPU: off the loop, as a rescale's re-cut is.
        profile = await asyncio.to_thread(
            lambda: profile_to_state(
                fold_partition_states(
                    profiles, self.capacity, flat=backend == "flat"
                )
            )
        )
        return {
            "version": API_STATE_VERSION,
            "backend": backend,
            "keys": "dense",
            "strict": self._strict,
            "capacity": self.capacity,
            "shards": None,
            "catalog": None,
            "batches": sum(s["batches"] for s in states),
            "events": sum(s["events"] for s in states),
            "profile": profile,
        }

    # -- introspection -------------------------------------------------

    async def _describe_cluster(self) -> dict[str, Any]:
        replicas = await asyncio.gather(
            *(
                self._replica_call(p, lambda client: client.health())
                for p in range(self._n_parts)
            )
        )
        for p, block in enumerate(replicas):
            block["endpoint"] = list(self._endpoints[p])
        return {
            "backend": "cluster",
            "keys": "dense",
            "strict": self._strict,
            "capacity": self.capacity,
            "partitions": self._n_parts,
            "replicas": replicas,
            "server": self.describe_server(),
        }

    def _journal_lag(self, p: int) -> int:
        """Journal entries partition ``p`` has not yet applied."""
        delivered = self._delivered[p]
        return sum(
            1
            for e in self._wal.state.entries.get(p, ())
            if e.seq > delivered
        )

    def health_info(self) -> dict[str, Any]:
        info = super().health_info()
        info["partitions"] = self._n_parts
        info["strict"] = self._strict
        info["replicas"] = [
            {
                "partition": [p, self._n_parts],
                "endpoint": list(self._endpoints[p]),
                "connected": p in self._clients,
                "journal_depth": len(self._wal.state.entries.get(p, ())),
                "journal_lag": self._journal_lag(p),
                "delivered_seq": self._delivered[p],
                "snapshot_seq": self._wal.state.snapshot_seqs.get(p, 0),
                "breaker": "open" if p in self._breakers else "closed",
            }
            for p in range(self._n_parts)
        ]
        info["generation"] = self._wal.generation
        if self._migration is not None:
            mig = self._migration
            info["migration"] = {
                "generation": mig["generation"],
                "new_partitions": mig["new_n"],
                "pending_batches": sum(
                    len(pend) - done
                    for pend, done in zip(
                        mig["pending"], mig["consumed"]
                    )
                ),
            }
        if self._wal.durable:
            info["wal"] = self._wal.describe()
            last = self._wal.last_synced_seq
            info["standbys"] = [
                {**cursor, "lag": max(0, last - cursor["seq"])}
                for cursor in self._wal.reader_cursors()
            ]
        return info

    def metrics_snapshot(self, detail: bool = True) -> dict[str, Any]:
        """The base snapshot plus router-tier liveness gauges."""
        if self._obs_on:
            obs = self._obs
            obs.gauge("router.partitions").set(self._n_parts)
            obs.gauge("router.generation").set(self._wal.generation)
            obs.gauge("router.breakers.open").set(len(self._breakers))
            obs.gauge("router.journal.depth").set(
                sum(len(tape) for tape in self._wal.state.entries.values())
            )
            obs.gauge("router.journal.lag").set(
                sum(self._journal_lag(p) for p in range(self._n_parts))
            )
            if self._wal.durable:
                wal = self._wal.describe()
                obs.gauge("router.wal.segments").set(wal["segments"])
                obs.gauge("router.wal.segments_created").set(
                    wal["segments_created"]
                )
                obs.gauge("router.wal.segments_pruned").set(
                    wal["segments_pruned"]
                )
        return super().metrics_snapshot(detail)

    def describe_server(self) -> dict[str, Any]:
        out = super().describe_server()
        out["partitions"] = self._n_parts
        out["generation"] = self._wal.generation
        out["snapshot_every"] = self._snapshot_every
        out["journal_depth"] = sum(
            len(tape) for tape in self._wal.state.entries.values()
        )
        out["strict"] = self._strict
        out["replica_timeout"] = self._replica_timeout
        out["degraded_reads"] = self._degraded
        if self._wal.durable:
            out["wal"] = self._wal.describe()
        out.update(
            {f"cluster_{k}": v for k, v in self.cluster_stats.items()}
        )
        return out
