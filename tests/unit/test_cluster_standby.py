"""Unit tests for the warm-standby router (`repro.cluster.standby`).

Everything runs in-process: replicas are real `ProfileServer`s on
loopback, the primary `ClusterRouter` journals to a real WAL on
tmp_path, and the `StandbyRouter` tails the same directory.  "Killing"
the primary aborts its transports and tasks without releasing the
lease — indistinguishable from `kill -9` as far as the standby's
death detection is concerned.  Subprocess-grade coverage (real
SIGKILL, supervisor generations) lives in
tests/integration/test_cluster_failover.py.
"""

import asyncio
import threading
import time

import pytest

from repro.api.facade import Profiler
from repro.cluster import ClusterRouter, StandbyRouter
from repro.errors import CapacityError, FencedWriterError
from repro.server.client import AsyncProfileClient
from repro.testing.replicas import InProcessSupervisor

CAPACITY = 20


async def kill_router(router):
    """In-process SIGKILL: abort every transport and task, leave the
    lease un-released and the WAL handle dangling, exactly like a dead
    process would."""
    if router._server is not None:
        router._server.close()
    for task in list(router._reader_tasks):
        task.cancel()
    if router._flusher is not None:
        router._flusher.cancel()
    if router._lease_task is not None:
        router._lease_task.cancel()
    for conn in list(router._conns):
        conn.writer.transport.abort()
    for client in router._clients.values():
        client.abort()


def make_primary(sup, wal_dir, **kw):
    kw.setdefault("snapshot_every", 3)
    kw.setdefault("batch_max", 4)
    kw.setdefault("lease_interval", 0.1)
    return ClusterRouter(
        CAPACITY, supervisor=sup, journal_dir=wal_dir, port=0, **kw
    )


def make_standby(sup, wal_dir, **kw):
    kw.setdefault("lease_timeout", 0.4)
    kw.setdefault("poll_interval", 0.05)
    kw.setdefault("probe_timeout", 0.2)
    kw.setdefault("snapshot_every", 3)
    kw.setdefault("batch_max", 4)
    kw.setdefault("lease_interval", 0.1)
    return StandbyRouter(
        CAPACITY, wal_dir, endpoints=sup.endpoints, port=0, **kw
    )


def reference_state(batches):
    with Profiler.open(CAPACITY, backend="flat") as ref:
        for batch in batches:
            ref.ingest(batch)
        return ref.frequencies()


async def checkpoint_freqs(client):
    state = await client.checkpoint()
    with Profiler.from_state(state) as restored:
        return restored.frequencies()


class TestValidation:
    def test_needs_exactly_one_replica_source(self, tmp_path):
        with pytest.raises(CapacityError):
            StandbyRouter(CAPACITY, tmp_path)
        with pytest.raises(CapacityError):
            StandbyRouter(
                CAPACITY, tmp_path, supervisor=object(), endpoints=[]
            )

    def test_rejects_bad_timeouts(self, tmp_path):
        with pytest.raises(CapacityError):
            StandbyRouter(
                CAPACITY, tmp_path, endpoints=[("h", 1)], lease_timeout=0
            )
        with pytest.raises(CapacityError):
            StandbyRouter(
                CAPACITY, tmp_path, endpoints=[("h", 1)], poll_interval=-1
            )


class TestFailover:
    def test_killed_primary_promotes_with_zero_acked_loss(self, tmp_path):
        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            primary = make_primary(sup, tmp_path)
            await primary.start()
            client = await AsyncProfileClient.connect(
                primary.host, primary.port
            )
            acked = []
            for i in range(10):
                batch = [(i % CAPACITY, 1), ((i * 7) % CAPACITY, 2)]
                await client.ingest(batch)
                acked.append(batch)
            client.abort()

            standby = await make_standby(sup, tmp_path).start()
            await asyncio.sleep(0.2)  # tail follows while primary lives
            assert not standby.promoted
            await kill_router(primary)
            await standby.wait_promoted(timeout=10.0)
            assert "lease stale" in standby.promote_reason
            router2 = standby.router
            assert router2.wal_info["epoch"] == 2

            c2 = await AsyncProfileClient.connect(
                router2.host, router2.port
            )
            # Every acked event survived the failover ...
            assert await checkpoint_freqs(c2) == reference_state(acked)
            # ... and ingest resumes under the new epoch.
            await c2.ingest([(3, 5)])
            assert await checkpoint_freqs(c2) == reference_state(
                acked + [[(3, 5)]]
            )
            await c2.aclose()
            await standby.stop()
            await sup.stop()

        asyncio.run(scenario())

    def test_graceful_drain_promotes_without_waiting(self, tmp_path):
        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            primary = make_primary(sup, tmp_path)
            await primary.start()
            client = await AsyncProfileClient.connect(
                primary.host, primary.port
            )
            await client.ingest([(1, 4), (2, 1)])
            await client.aclose()

            # A long lease_timeout would stall a crash takeover for
            # 30s; a *released* lease must not wait at all.
            standby = await make_standby(
                sup, tmp_path, lease_timeout=30.0
            ).start()
            await primary.stop()  # graceful: releases the lease
            await standby.wait_promoted(timeout=10.0)
            assert "lease released" in standby.promote_reason

            c2 = await AsyncProfileClient.connect(
                standby.router.host, standby.router.port
            )
            assert await checkpoint_freqs(c2) == reference_state(
                [[(1, 4), (2, 1)]]
            )
            await c2.aclose()
            await standby.stop()
            await sup.stop()

        asyncio.run(scenario())

    def test_live_primary_is_left_alone(self, tmp_path):
        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            # Primary heartbeats slower than the standby's timeout: the
            # lease goes stale, but the health probe still connects, so
            # the standby must not move.
            primary = make_primary(sup, tmp_path, lease_interval=5.0)
            await primary.start()
            standby = await make_standby(
                sup, tmp_path, lease_timeout=0.2
            ).start()
            await asyncio.sleep(0.8)
            assert not standby.promoted
            await standby.stop()
            await primary.stop()
            await sup.stop()

        asyncio.run(scenario())


class TestSplitBrain:
    def test_fenced_primary_cannot_ack(self, tmp_path):
        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            primary = make_primary(sup, tmp_path, lease_interval=60.0)
            await primary.start()
            client = await AsyncProfileClient.connect(
                primary.host, primary.port
            )
            acked = []
            for i in range(6):
                batch = [(i % CAPACITY, 1)]
                await client.ingest(batch)
                acked.append(batch)

            # Operator-forced promotion while the primary is ALIVE —
            # the worst case fencing exists for.
            standby = await make_standby(sup, tmp_path).start()
            router2 = await standby.promote()
            assert router2.wal_info["epoch"] > primary.wal_info["epoch"]

            # The deposed primary's next ack-gating sync hits the
            # higher-epoch lease and dies instead of acking.
            lost = [(7, 100)]
            with pytest.raises(ConnectionError):
                await client.ingest(lost)
            assert primary.crashed
            client.abort()

            # The promoted router serves every pre-fence ack and none
            # of the fenced writer's unacked residue.
            c2 = await AsyncProfileClient.connect(
                router2.host, router2.port
            )
            assert await checkpoint_freqs(c2) == reference_state(acked)
            await c2.aclose()
            await standby.stop()
            await sup.stop()

        asyncio.run(scenario())

    def test_fenced_wal_sync_raises(self, tmp_path):
        # The primitive under the behavior above, asserted directly.
        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            primary = make_primary(sup, tmp_path, lease_interval=60.0)
            await primary.start()
            standby = await make_standby(sup, tmp_path).start()
            await standby.promote()
            # The fence trips at the first durability step it can —
            # segment open or the ack-gating sync, whichever comes
            # first for this WAL's state.
            with pytest.raises(FencedWriterError):
                primary._wal.append_entry(0, 99, [1], [1])
                primary._wal.sync()
            await kill_router(primary)
            await standby.stop()
            await sup.stop()

        asyncio.run(scenario())


class TestPromotionMechanics:
    def test_concurrent_promotes_collapse(self, tmp_path):
        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            primary = make_primary(sup, tmp_path)
            await primary.start()
            await primary.stop()
            standby = await make_standby(sup, tmp_path).start()
            first, second = await asyncio.gather(
                standby.promote(), standby.promote()
            )
            assert first is second is standby.router
            await standby.stop()
            await sup.stop()

        asyncio.run(scenario())

    def test_promote_after_stop_refuses(self, tmp_path):
        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            standby = await make_standby(sup, tmp_path).start()
            await standby.stop()
            with pytest.raises(RuntimeError):
                await standby.promote()
            await sup.stop()

        asyncio.run(scenario())

    def test_stop_outlasts_an_inflight_poll(self, tmp_path):
        """A poll in flight when stop() is called must finish before the
        cursor is removed, or it rewrites the cursor and the primary
        keeps deferring prunes for a dead reader.  The watch loop polls
        on the event loop, so stop() can only run between polls."""

        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            standby = await make_standby(sup, tmp_path).start()
            tail = standby._tail
            poll = tail.poll
            started = threading.Event()

            def slow_poll():
                started.set()
                time.sleep(0.2)
                return poll()

            tail.poll = slow_poll
            await asyncio.to_thread(started.wait, 5.0)
            await standby.stop()
            await asyncio.sleep(0.3)  # past the poll, had it run on
            await sup.stop()
            return (tmp_path / "cursor-standby.json").exists()

        assert asyncio.run(scenario()) is False

    def test_steady_polls_run_on_the_loop_thread(self, tmp_path):
        """After the initial catch-up, the watch loop polls in place:
        no worker thread per poll."""

        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            standby = await make_standby(sup, tmp_path).start()
            tail = standby._tail
            poll = tail.poll
            threads = []

            def spy():
                threads.append(threading.current_thread())
                return poll()

            tail.poll = spy
            for _ in range(500):
                if len(threads) >= 3:
                    break
                await asyncio.sleep(0.01)
            await standby.stop()
            await sup.stop()
            return threads

        threads = asyncio.run(scenario())
        assert len(threads) >= 3
        assert set(threads) == {threading.main_thread()}

    def test_wait_promoted_times_out(self, tmp_path):
        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            standby = await make_standby(sup, tmp_path).start()
            with pytest.raises(asyncio.TimeoutError):
                await standby.wait_promoted(timeout=0.05)
            await standby.stop()
            await sup.stop()

        asyncio.run(scenario())

    def test_describe_tracks_role_and_tail(self, tmp_path):
        async def scenario():
            sup = await InProcessSupervisor(CAPACITY, 2).start()
            primary = make_primary(sup, tmp_path)
            await primary.start()
            client = await AsyncProfileClient.connect(
                primary.host, primary.port
            )
            await client.ingest([(1, 1)])
            await client.aclose()

            standby = await make_standby(sup, tmp_path).start()
            await asyncio.sleep(0.2)
            info = standby.describe()
            assert info["role"] == "standby"
            assert not info["promoted"]
            assert info["lease_epoch"] == 1
            assert info["tail"]["seq"] == 1

            # The primary's health report sees the follower's cursor.
            health = primary.health_info()
            readers = [s["reader"] for s in health["standbys"]]
            assert "standby" in readers

            await primary.stop()
            await standby.wait_promoted(timeout=10.0)
            info = standby.describe()
            assert info["promoted"]
            assert info["lease_epoch"] == 2
            assert "promote_reason" in info
            await standby.stop()
            await sup.stop()

        asyncio.run(scenario())
