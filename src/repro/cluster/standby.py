"""Warm-standby router: tail the primary's WAL, promote on its death.

:class:`StandbyRouter` is the second half of the failover story the
fenced :class:`~repro.cluster.journal.RouterWal` enables.  It never
serves while the primary lives — it *follows*: a
:class:`~repro.cluster.journal.WalTail` applies every synced (hence
ackable) record to the one replay state the primary's writer and cold
recovery keep, and the standby's cursor file tells the primary's
prune to defer segments the tail has not finished.  The log's
``SNAPSHOT`` records drop covered entries from the tail's tape too, so
it holds about one snapshot interval, not the ingest history.
Promotion is therefore a bounded amount of work no matter how long the
pair has been running: re-read the sealed tail (at most one poll
interval of records), write the fence, read the snapshot files,
restore the replicas, bind the port.  For the same reason the
steady-state poll runs on the event loop, not in a thread: it reads
``fence.json``, lists the segments, parses the records appended since
the last poll and rewrites the cursor file (renamed into place, not
fsynced).  A poll that finds its segment pruned (only once the cursor
went stale) re-reads the layout and snapshot files — on the loop,
once.

Failure detection is two independent signals, both of which must agree
before the standby moves:

1. **Lease staleness** — the primary heartbeats ``lease.json`` every
   ``lease_interval`` seconds; a lease not renewed for
   ``lease_timeout`` seconds is presumed abandoned.  A *released*
   lease (``renewed == 0``, written by a graceful drain) skips the
   wait entirely.
2. **Health probe** — before trusting staleness, the standby dials the
   endpoint the lease advertises.  A primary that merely missed
   heartbeats (GC pause, disk stall) but still accepts connections is
   left alone; only connect failure confirms death.

Promotion order is the split-brain contract, and it must not be
reordered:

1. Write ``lease.json`` at a strictly higher epoch.  From this
   instant the old primary's next fence check (it runs *before* the
   ack-gating fsync, and inside every lease heartbeat) raises
   :class:`~repro.errors.FencedWriterError` — it can never ack
   another event.
2. Final tail poll.  Everything the old primary ever acked was
   fsync'd before the ack left, so it is visible to this read; the
   lease write in step 1 guarantees nothing *new* gets acked after
   it.
3. Write ``fence.json`` with byte-exact cuts.  Any bytes a fenced
   writer manages to append past the cut are unacked by construction
   (step 1 ran first) and every future reader discards them.

Steps 1 and 3 are the WAL's own lease and fence writers
(:meth:`RouterWal.acquire_lease`, :meth:`RouterWal.write_fence`).
Then the new writer adopts the tail's replay state
(:meth:`RouterWal.adopt`) and the standby becomes an ordinary
:class:`ClusterRouter` on it (``wal=``), skipping the cold ``load()``
— restores the replica tier, binds the service port, and resumes
acking with the sequence numbers exactly where the primary's last ack
left them.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from pathlib import Path
from typing import Any

from repro.cluster.journal import RouterWal, WalTail
from repro.cluster.router import ClusterRouter
from repro.errors import CapacityError
from repro.obs.registry import LATENCY_MS_BOUNDS, get_registry
from repro.testing.faults import fault_point

__all__ = ["StandbyRouter"]


class StandbyRouter:
    """Follow a primary router's WAL; take over when it dies.

    Parameters
    ----------
    capacity:
        Global universe size ``m`` — must match the primary's.
    journal_dir:
        The primary's WAL directory (shared storage in a real
        deployment; the same local path in tests).
    supervisor:
        Replica lifecycle manager for the *promoted* tier (duck-typed
        like the router's).  A supervisor on the primary's workdir
        inherits its orphaned replicas by pid file.  Mutually
        exclusive with ``endpoints``.
    endpoints:
        Static replica endpoints to adopt at promotion instead of a
        supervisor (the replicas must survive the primary).
    reader_id:
        Cursor-file identity; two standbys need distinct ids.
    lease_timeout:
        Seconds without a lease renewal before the primary is
        presumed dead (keep several multiples of the primary's
        ``lease_interval``).
    poll_interval:
        Seconds between tail polls — the replication-lag bound while
        the primary lives, and the detection-latency floor once it
        stops.  Each poll reads what the primary appended since the
        last one (one interval of log while the standby keeps up) and
        runs on the event loop; only the initial catch-up in
        :meth:`start` and the sealed-tail read in :meth:`promote` use
        a worker thread.
    probe_timeout:
        Seconds a confirming health probe waits for a connection.
    **router_kwargs:
        Forwarded verbatim to the promoted :class:`ClusterRouter`
        (``host``/``port``/``strict``/``snapshot_every``/...).
    """

    def __init__(
        self,
        capacity: int,
        journal_dir,
        *,
        supervisor=None,
        endpoints=None,
        reader_id: str = "standby",
        lease_timeout: float = 3.0,
        poll_interval: float = 0.1,
        probe_timeout: float = 0.5,
        wal_sync: bool = True,
        **router_kwargs,
    ) -> None:
        if supervisor is not None and endpoints is not None:
            raise CapacityError(
                "pass a supervisor or static endpoints, not both"
            )
        if supervisor is None and endpoints is None:
            raise CapacityError(
                "StandbyRouter needs a supervisor or endpoints to "
                "promote onto"
            )
        if lease_timeout <= 0:
            raise CapacityError(
                f"lease_timeout must be positive, got {lease_timeout}"
            )
        if poll_interval <= 0:
            raise CapacityError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        self._capacity = capacity
        self._dir = Path(journal_dir)
        self._supervisor = supervisor
        self._endpoints = (
            None if endpoints is None else [tuple(e) for e in endpoints]
        )
        self._reader_id = str(reader_id)
        self._lease_timeout = float(lease_timeout)
        self._poll_interval = float(poll_interval)
        self._probe_timeout = float(probe_timeout)
        #: the writer this standby becomes at promotion; until then
        #: only its lease reader is used
        self._wal = RouterWal(self._dir, sync=wal_sync)
        self._router_kwargs = dict(router_kwargs)
        self._tail: WalTail | None = None
        self._watch_task: asyncio.Task | None = None
        self._promote_lock = asyncio.Lock()
        self._promoted = asyncio.Event()
        self._stopped = False
        self.router: ClusterRouter | None = None
        #: why the watcher decided to promote (None until it did)
        self.promote_reason: str | None = None
        #: wall-clock seconds the last promotion took (None until then)
        self.promote_seconds: float | None = None
        # Standby instruments live on the process-default registry
        # (the standby predates its router, which owns its own).
        obs = get_registry()
        self._obs = obs
        self._obs_lag = obs.gauge("standby.replay.lag")
        self._obs_promote_ms = obs.histogram(
            "standby.promote_ms", LATENCY_MS_BOUNDS
        )

    # -- following ------------------------------------------------------

    async def start(self) -> "StandbyRouter":
        """Open the tail and start the watch loop.

        The initial catch-up (the whole retained log) replays in a
        worker thread; :meth:`start` returns once it is done.
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        self._tail = WalTail(self._dir, reader_id=self._reader_id)
        await asyncio.to_thread(self._tail.poll)
        self._watch_task = asyncio.create_task(self._watch())
        return self

    async def _watch(self) -> None:
        """Poll the tail; promote when the primary is confirmed dead.

        A poll reads the WAL appended since the last one (one poll
        interval of records while the standby keeps up; see the module
        docstring for what else it touches), so it runs on the event
        loop, between awaits: a cancellation can never land mid-poll,
        and no thread outlives the loop.
        """
        while True:
            await asyncio.sleep(self._poll_interval)
            state = self._tail.state
            behind = state.last_seq
            self._tail.poll()
            if self._obs.enabled:
                # Replay lag at poll time: how many acked batches the
                # replay state was behind when this poll caught it up.
                self._obs_lag.set(max(0, state.last_seq - behind))
                self._obs.gauge("standby.replay.seq").set(state.last_seq)
            reason = await self._primary_dead()
            if reason is None:
                continue
            self.promote_reason = reason
            await self.promote()
            return

    async def _primary_dead(self) -> str | None:
        """The two-signal death verdict (None = leave the primary be)."""
        lease = self._wal.read_lease()
        if lease is None:
            # No writer ever claimed this directory; nothing to
            # take over from (and nothing acked that we could lose).
            return None
        try:
            renewed = float(lease.get("renewed", 0.0))
        except (TypeError, ValueError):
            renewed = 0.0
        if renewed == 0.0:
            return "lease released (graceful primary shutdown)"
        age = time.time() - renewed
        if age <= self._lease_timeout:
            return None
        if await self._probe(lease.get("endpoint")):
            return None  # stale heartbeat but alive: not ours to take
        return (
            f"lease stale ({age:.1f}s > {self._lease_timeout:g}s) and "
            f"endpoint probe failed"
        )

    async def _probe(self, endpoint) -> bool:
        """True iff something still accepts connections at ``endpoint``."""
        try:
            host, port = endpoint
            port = int(port)
        except (TypeError, ValueError):
            return False  # lease never learned its port: trust staleness
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(str(host), port),
                self._probe_timeout,
            )
        except (OSError, asyncio.TimeoutError):
            return False
        writer.close()
        with contextlib.suppress(OSError, ConnectionError):
            await writer.wait_closed()
        return True

    # -- promotion ------------------------------------------------------

    async def promote(self) -> ClusterRouter:
        """Fence the old primary and serve in its place.

        Safe to call directly (operator-forced failover) or from the
        watch loop; concurrent calls collapse into one promotion.
        See the module docstring for why the three-step order is
        load-bearing.
        """
        async with self._promote_lock:
            if self.router is not None:
                return self.router
            if self._stopped:
                raise RuntimeError("standby is stopped")
            watcher = self._watch_task
            if watcher is not None and watcher is not asyncio.current_task():
                # Operator-forced promotion: the watch loop must not
                # poll the tail while the sealed-tail read below runs
                # in a worker thread (the tail is not thread-safe).
                watcher.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await watcher
                self._watch_task = None
            await fault_point("standby.promote")
            t0 = time.monotonic()
            tail = self._tail
            wal = self._wal
            # Step 1: the lease write that fences the old epoch.
            epoch = wal.acquire_lease(
                f"standby-{self._reader_id}-{os.getpid()}"
            )
            # Step 2: the sealed tail — complete, because nothing can
            # be acked (= synced) under the old epoch anymore.
            await asyncio.to_thread(tail.poll)
            # Step 3: the byte-exact cut every future reader obeys.
            wal.write_fence(tail.cuts())
            tail.remove_cursor()
            # Snapshot states come from their files; a file newer than
            # the last SNAPSHOT record the tail read still covers.
            tail.state.adopt_files(self._dir)
            wal.adopt(tail)
            sup = self._supervisor
            if sup is not None:
                try:
                    sup.endpoints
                except RuntimeError:
                    await sup.start()
            router = ClusterRouter(
                self._capacity,
                self._endpoints,
                supervisor=sup,
                wal=wal,
                **self._router_kwargs,
            )
            await router.start()
            self.router = router
            self.promote_seconds = time.monotonic() - t0
            if self._obs.enabled:
                ms = self.promote_seconds * 1e3
                self._obs_promote_ms.observe(ms)
                self._obs.spans.record(
                    "standby.promoted",
                    ms=round(ms, 3),
                    epoch=epoch,
                    seq=wal.state.last_seq,
                    reason=self.promote_reason,
                )
            self._promoted.set()
            return router

    # -- introspection ---------------------------------------------------

    @property
    def promoted(self) -> bool:
        return self._promoted.is_set()

    async def wait_promoted(self, timeout: float | None = None) -> None:
        """Block until this standby is serving (or ``timeout`` runs out)."""
        await asyncio.wait_for(self._promoted.wait(), timeout)

    def describe(self) -> dict[str, Any]:
        """Replication/failover status for health reporting."""
        tail = self._tail
        lease = self._wal.read_lease() or {}
        out: dict[str, Any] = {
            "role": "standby",
            "promoted": self.promoted,
            "reader": self._reader_id,
            "lease_epoch": int(lease.get("epoch", 0)),
            "lease_owner": lease.get("owner"),
        }
        if tail is not None:
            out["tail"] = tail.describe()
        if self.promote_reason is not None:
            out["promote_reason"] = self.promote_reason
        if self.promote_seconds is not None:
            out["promote_seconds"] = round(self.promote_seconds, 6)
        return out

    # -- lifecycle -------------------------------------------------------

    async def stop(self) -> None:
        """Stop following (or, once promoted, stop serving)."""
        if self._stopped:
            return
        self._stopped = True
        if self._watch_task is not None:
            self._watch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watch_task
            self._watch_task = None
        if self.router is not None:
            await self.router.stop()
        elif self._tail is not None:
            self._tail.remove_cursor()

    async def __aenter__(self) -> "StandbyRouter":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()
