"""Unit tests for the cluster tier: journal, batch partitioning,
router validation, degraded reads, and the two CLIs' cluster-facing
pieces.

The query-side merge algebra is :mod:`repro.engine.merge`, tested in
``tests/unit/test_engine_merge.py``.  Full wire-level equivalence
(with crashes) lives in
``tests/property/test_prop_cluster_equivalence.py`` and
``tests/integration/test_cluster_e2e.py``.
"""

import asyncio

import pytest

from repro.api import Profiler, Query
from repro.cluster import (
    ClusterRouter,
    RouterWal,
    partition_capacity,
)
from repro.cluster.merge import partition_batch
from repro.errors import CapacityError
from repro.server import AsyncProfileClient, ProfileServer
from repro.server.cli import _parse_partition, _write_port_file
from repro.server.protocol import ProtocolError
from repro.testing.replicas import InProcessSupervisor


class TestJournalReplayState:
    """The router's journal is the WAL's replay state; without a
    directory it lives in memory only."""

    def test_append_entries_snapshot_roundtrip(self):
        wal = RouterWal(None)
        wal.append_entry(0, 3, [1, 2], [1, -1])
        wal.append_entry(0, 5, [0], [2])
        state = wal.state
        assert [e.seq for e in state.entries[0]] == [3, 5]
        assert state.watermark(0) == 5
        wal.note_snapshot(0, 5, {"v": 5})
        assert 0 not in state.entries
        assert state.snapshot_seqs[0] == 5
        assert state.snapshots[0] == {"v": 5}
        assert state.watermark(0) == 5
        assert not any(wal.stats.values())  # no files, no framing

    def test_seq_must_be_monotonic(self):
        wal = RouterWal(None)
        wal.append_entry(0, 4, [0], [1])
        with pytest.raises(ValueError, match="monotonic"):
            wal.append_entry(0, 4, [1], [1])
        with pytest.raises(ValueError, match="monotonic"):
            wal.append_entry(0, 2, [1], [1])
        assert [e.seq for e in wal.state.entries[0]] == [4]

    def test_coverage_drops_only_covered_entries(self):
        wal = RouterWal(None)
        wal.append_entry(0, 2, [0], [1])
        wal.append_entry(0, 7, [1], [1])
        wal.append_entry(1, 3, [1], [1])
        wal.state.cover(0, 5)
        assert [e.seq for e in wal.state.entries[0]] == [7]
        assert [e.seq for e in wal.state.entries[1]] == [3]
        wal.state.cover(1, 4)
        assert 1 not in wal.state.entries
        # An entry the snapshot already covers never reaches the tape.
        wal.append_entry(1, 4, [2], [1])
        assert 1 not in wal.state.entries

    def test_router_refuses_a_snapshot_that_misses_the_tape(self):
        router = ClusterRouter(4, [("127.0.0.1", 1)], port=0)
        wal = router._wal
        wal.append_entry(0, 2, [0], [1])
        router._delivered[0] = 2

        async def checkpoint_racing_an_append(p, call):
            # The synchronous pipeline rules this out; if it ever
            # broke, the snapshot would miss seq 7.
            wal.append_entry(0, 7, [1], [1])
            return {"v": 2}

        router._replica_call = checkpoint_racing_an_append
        with pytest.raises(ValueError, match="does not cover"):
            asyncio.run(router._snapshot(0))
        # The tape survives a refused truncation intact.
        assert [e.seq for e in wal.state.entries[0]] == [2, 7]
        assert wal.state.snapshot_seqs == {}

    def test_events_count_follows_the_tape(self):
        wal = RouterWal(None)
        wal.append_entry(0, 1, [1, 2, 3], [1, 1, -1])
        wal.append_entry(0, 2, [4], [2])
        assert wal.state.events[0] == 4
        wal.note_snapshot(0, 2, {})
        assert wal.state.events.get(0, 0) == 0
        wal.append_entry(0, 3, [5, 6], [1, 1])
        assert wal.state.events[0] == 2

    def test_commit_decision_moves_staged_entries_onto_the_tape(self):
        wal = RouterWal(None)
        wal.append_entry(0, 1, [1], [1], prepared=True)
        wal.append_entry(1, 1, [0], [1], prepared=True)
        wal.append_entry(0, 2, [2], [1], prepared=True)
        assert wal.state.entries == {}
        wal.append_decision(1, [0, 1], commit=True)
        wal.append_decision(2, [0], commit=False)
        tapes = wal.state.entries
        assert {p: [e.seq for e in t] for p, t in tapes.items()} == {
            0: [1],
            1: [1],
        }
        assert wal.state.prepared == {}

    def test_boot_state_is_the_implicit_empty_snapshot(self):
        state = RouterWal(None).state
        assert state.snapshot_seqs.get(2, 0) == 0
        assert state.watermark(2) == 0
        assert state.entries == {}
        assert state.snapshots == {}


class TestPartitionBatch:
    def test_pairs_split_by_modulus(self):
        parts, applied = partition_batch(
            [(0, 1), (1, 2), (3, 1), (4, -1)], 3, 9
        )
        assert set(parts) == {0, 1}
        ids0, deltas0 = parts[0]
        assert list(ids0) == [0, 1] and list(deltas0) == [1, 1]
        ids1, deltas1 = parts[1]
        assert list(ids1) == [0, 1] and list(deltas1) == [2, -1]
        assert applied == 5

    def test_applied_matches_facade_ingest(self):
        # Opposing deltas on one id cancel (net unit events).
        batch = [(5, 2), (5, -2), (7, 1), (2, 3)]
        with Profiler.open(9, backend="flat") as ref:
            expected = ref.ingest(batch)
        _parts, applied = partition_batch(batch, 2, 9)
        assert applied == expected

    def test_out_of_range_rejects_whole_batch(self):
        with pytest.raises(
            CapacityError, match=r"object id 9 out of range \[0, 9\)"
        ):
            partition_batch([(1, 1), (9, 1)], 3, 9)
        with pytest.raises(CapacityError, match="out of range"):
            partition_batch([(-1, 1)], 3, 9)

    def test_binary_columns_split_identically(self):
        np = pytest.importorskip("numpy")
        from repro.core.profile import ArrayBatch

        ids = np.array([0, 1, 3, 4], dtype=np.int64)
        deltas = np.array([1, 2, 1, -1], dtype=np.int64)
        parts, applied = partition_batch(ArrayBatch(ids, deltas), 3, 9)
        ref_parts, ref_applied = partition_batch(
            list(zip(ids.tolist(), deltas.tolist())), 3, 9
        )
        assert applied == ref_applied
        assert set(parts) == set(ref_parts)
        for p in parts:
            assert list(parts[p][0]) == list(ref_parts[p][0])
            assert list(parts[p][1]) == list(ref_parts[p][1])

    def test_empty_batch(self):
        parts, applied = partition_batch([], 3, 9)
        assert parts == {} and applied == 0


class TestRouterValidation:
    def test_needs_endpoints_or_supervisor(self):
        with pytest.raises(CapacityError, match="endpoints or a supervisor"):
            ClusterRouter(10)

    def test_capacity_must_cover_partitions(self):
        with pytest.raises(CapacityError, match="cannot spread"):
            ClusterRouter(2, [("h", 1), ("h", 2), ("h", 3)])

    def test_snapshot_every_positive(self):
        with pytest.raises(CapacityError, match="snapshot_every"):
            ClusterRouter(10, [("h", 1)], snapshot_every=0)

    def test_replica_identity_mismatch_fails_start(self):
        # A 2-partition router over a 10-universe needs replica 0 at
        # capacity 5; serve 7 instead and start() must refuse loudly.
        async def scenario():
            prof = Profiler.open(7, backend="flat")
            async with ProfileServer(prof, port=0) as replica:
                router = ClusterRouter(
                    10,
                    [(replica.host, replica.port)] * 2,
                    port=0,
                )
                with pytest.raises(ProtocolError, match="capacity=7"):
                    await router.start()
            prof.close()

        asyncio.run(scenario())

    def test_partition_capacity_covers_universe(self):
        for m in (1, 5, 9, 10, 17):
            for n in range(1, m + 1):
                caps = [partition_capacity(m, p, n) for p in range(n)]
                assert sum(caps) == m
                assert min(caps) >= 1


class TestSnapshotRule:
    """A partition snapshots once its journal holds ``snapshot_every``
    batches *and* its capacity in events — not before, and right after
    the batch that completes both."""

    def test_both_floors_must_hold(self):
        m, n = 40, 2
        cap = partition_capacity(m, 0, n)  # 20 keys on partition 0

        async def scenario():
            profilers = [
                Profiler.open(partition_capacity(m, p, n), backend="flat")
                for p in range(n)
            ]
            replicas = [
                await ProfileServer(prof, port=0).start()
                for prof in profilers
            ]
            router = ClusterRouter(
                m,
                [(r.host, r.port) for r in replicas],
                snapshot_every=3,
                port=0,
            )
            await router.start()
            client = await AsyncProfileClient.connect(port=router.port)
            seen = []

            async def send(ids):
                await client.ingest([(x, 1) for x in ids])
                await client.ping()  # barrier: the flush is finished
                state = router._wal.state
                seen.append(
                    (
                        len(state.entries.get(0, ())),
                        state.events.get(0, 0),
                        router.cluster_stats["snapshots"],
                    )
                )

            try:
                # Batch floor met early, event floor not: 10 batches
                # of 2 events reach 20 only on the last one.
                for i in range(10):
                    await send([4 * i % m, (4 * i + 2) % m])
                # Event floor met at once, batch floor not: a whole
                # partition per batch snapshots on the 3rd batch.
                for _ in range(3):
                    await send(range(0, m, 2))
            finally:
                await client.aclose()
                await router.stop()
                for replica in replicas:
                    await replica.stop()
                for prof in profilers:
                    prof.close()
            return seen

        seen = asyncio.run(scenario())
        # 9 batches, 18 < 20 events: no snapshot yet.
        assert seen[:9] == [(i, 2 * i, 0) for i in range(1, 10)]
        # The 10th batch completes both floors: snapshot, tape cleared.
        assert seen[9] == (0, 0, 1)
        assert seen[10] == (1, cap, 1)
        assert seen[11] == (2, 2 * cap, 1)
        assert seen[12] == (0, 0, 2)


class TestLoopTurns:
    """Every hop of a steady-state ingest finishes in the loop turn
    that received it: acks are buffered writes, the fan-out awaits ack
    futures in place, trace marks are pipelined."""

    def test_steady_ingest_creates_no_tasks(self, tmp_path):
        m, n = 64, 2
        frame = [(x, 1) for x in range(0, m, 3)]  # both partitions

        async def scenario():
            sup = await InProcessSupervisor(m, n).start()
            router = ClusterRouter(
                m,
                supervisor=sup,
                journal_dir=tmp_path,
                snapshot_every=8,
                port=0,
            )
            await router.start()
            client = await AsyncProfileClient.connect(port=router.port)
            loop = asyncio.get_running_loop()
            created = []

            def count_tasks(loop, coro, **kwargs):
                created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            try:
                for _ in range(5):  # warm-up: dials, first snapshots
                    await client.ingest(frame)
                loop.set_task_factory(count_tasks)
                for _ in range(40):
                    assert await client.ingest(frame) == len(frame)
                loop.set_task_factory(None)
                flushes = router.stats.flushes
                snapshots = router.cluster_stats["snapshots"]
            finally:
                loop.set_task_factory(None)
                await client.aclose()
                await router.stop()
                await sup.stop()
            return created, flushes, snapshots

        created, flushes, snapshots = asyncio.run(scenario())
        assert flushes == 45
        assert snapshots > 1  # the steady state includes snapshots
        assert created == []

    def test_stalled_trace_reply_does_not_hold_the_flusher(self):
        """A replica that never answers a ``trace`` mark must not delay
        the next flush: marks are sent, not awaited."""
        m, n = 40, 2

        async def scenario():
            sup = await InProcessSupervisor(m, n).start()
            for replica in sup.servers:
                read = replica._read_request

                async def swallow_marks(conn, read=read):
                    while True:
                        item = await read(conn)
                        if item is None or item.kind != "trace_mark":
                            return item
                        # ...and the mark's reply never comes.

                replica._read_request = swallow_marks
            router = ClusterRouter(m, supervisor=sup, port=0)
            await router.start()
            client = await AsyncProfileClient.connect(
                port=router.port, trace=True
            )
            try:
                first = await client.ingest([(1, 1), (2, 1)])
                second = await asyncio.wait_for(
                    client.ingest([(3, 1), (4, 1)]), 5.0
                )
                total = await asyncio.wait_for(client.total(), 5.0)
                spans = [
                    s for s in router._obs.spans.snapshot()
                    if s["name"] == "router.flush"
                    and s.get("trace") == client.trace
                ]
            finally:
                await client.aclose()
                # Bounded: a flusher stuck on a mark would never drain.
                await asyncio.wait_for(router.stop(), 10.0)
                await sup.stop()
            return first, second, total, spans

        first, second, total, spans = asyncio.run(scenario())
        assert (first, second, total) == (2, 2, 4)
        assert [s["partitions"] for s in spans] == [[0, 1], [0, 1]]


class TestStalledReplica:
    def test_deadline_covers_a_send_the_replica_never_reads(self):
        """A replica that stops reading cannot suspend the fan-out.

        Its sub-batch is bigger than the socket buffers plus the
        transport's high-water mark, so a send that awaited the drain
        would never return.  The partition must still trip within
        ``replica_timeout`` of the send, the flush must still ack, and
        the other partition of the same flush must not trip.
        """
        import socket

        import numpy as np

        m, n, timeout = 64, 2, 0.5
        events = 250_000  # 4 MB of columns, all for partition 1

        async def scenario():
            sup = await InProcessSupervisor(m, n).start()
            router = ClusterRouter(
                m, supervisor=sup, replica_timeout=timeout, port=0
            )
            await router.start()
            client = await AsyncProfileClient.connect(port=router.port)
            loop = asyncio.get_running_loop()
            try:
                assert await client.ingest([(0, 1), (1, 1)]) == 2
                link = router._clients[1]._writer.transport
                link.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                for conn in sup.servers[1]._conns:
                    conn.writer.transport.pause_reading()
                ids = np.full(events + 1, 1, dtype=np.int64)
                ids[-1] = 2  # one event for partition 0
                deltas = np.ones(events + 1, dtype=np.int64)
                t0 = loop.time()
                big = asyncio.ensure_future(client.ingest((ids, deltas)))
                await asyncio.sleep(timeout / 2)
                backed_up = (
                    link.get_write_buffer_size()
                    > link.get_write_buffer_limits()[1]
                )
                applied = await asyncio.wait_for(big, 10 * timeout)
                elapsed = loop.time() - t0
                trips = router.cluster_stats["deadline_trips"]
                open_breakers = sorted(router._breakers)
                # The live partition keeps ingesting at speed.
                t1 = loop.time()
                assert await client.ingest([(0, 1)]) == 1
                live = loop.time() - t1
            finally:
                await client.aclose()
                await asyncio.wait_for(router.stop(), 10.0)
                await asyncio.wait_for(sup.stop(), 10.0)
            return backed_up, applied, elapsed, trips, open_breakers, live

        backed_up, applied, elapsed, trips, open_breakers, live = (
            asyncio.run(scenario())
        )
        assert backed_up  # the send really outgrew every buffer
        assert applied == events + 1
        assert elapsed < timeout + 1.0
        assert (trips, open_breakers) == (1, [1])
        assert live < timeout

    def test_lost_partition_recovers_after_the_others_settle(self):
        """A partition whose link died is restored and replayed only
        once the flush's other partitions have their acks: recovery
        must not delay a healthy partition's round."""
        m, n = 40, 2

        async def scenario():
            sup = await InProcessSupervisor(m, n).start()
            router = ClusterRouter(m, supervisor=sup, port=0)
            await router.start()
            client = await AsyncProfileClient.connect(port=router.port)
            seen = []
            recover = router._recover

            async def watched(p, **kwargs):
                seen.append((p, list(router._delivered)))
                return await recover(p, **kwargs)

            router._recover = watched
            try:
                assert await client.ingest([(0, 1), (1, 1)]) == 2
                await sup.crash(0)
                assert await client.ingest([(2, 1), (3, 1)]) == 2
                total = await client.total()
            finally:
                await client.aclose()
                await router.stop()
                await sup.stop()
            return seen, total

        seen, total = asyncio.run(scenario())
        assert total == 4
        # Partition 1 had acked seq 2 before partition 0's replay began.
        assert seen == [(0, [1, 2])]


class TestDegradedReads:
    """With a partition down, every aggregate answers ``partial=True``
    exactly as a profile holding only the live partitions' objects
    would — ranks counted over that live universe."""

    KINDS = (
        Query.total(),
        Query.active_count(),
        Query.support(0),
        Query.support(2),
        Query.mode(),
        Query.least(),
        Query.max_frequency(),
        Query.min_frequency(),
        Query.histogram(),
        Query.median(),
        Query.quantile(0.9),
        Query.quantile(0.99),
        Query.top_k(10),
        Query.kth_most_frequent(1),
        Query.kth_most_frequent(12),
        Query.heavy_hitters(0.02),
    )

    @pytest.mark.parametrize("n, dead", [(2, 0), (3, 1)], ids=["r2", "r3"])
    def test_every_kind_answers_over_the_live_universe(self, n, dead):
        import numpy as np

        from repro.core.queries import quantile_rank
        from repro.errors import ReplicaUnavailableError

        m = 40
        rng = np.random.default_rng(n)
        ids = rng.integers(0, m, 400, dtype=np.int64)
        deltas = rng.integers(-1, 4, 400, dtype=np.int64)

        async def scenario():
            sup = await InProcessSupervisor(m, n).start()
            router = ClusterRouter(
                m,
                supervisor=sup,
                replica_timeout=0.3,
                breaker_cooldown=60.0,
                degraded_reads=True,
                port=0,
            )
            await router.start()
            client = await AsyncProfileClient.connect(port=router.port)
            try:
                await client.ingest((ids, deltas))
                await sup.crash(dead)
                result = await client.evaluate(*self.KINDS)
                errors = []
                for query in (
                    Query.frequency(dead),
                    Query.kth_most_frequent(m - m // n + 1),
                ):
                    try:
                        await client.evaluate(query)
                    except Exception as exc:  # noqa: BLE001 - by type
                        errors.append(type(exc))
            finally:
                await client.aclose()
                await router.stop()
                await sup.ensure_replica(dead)  # replace the crashed cell
                await sup.stop()
            return result, errors

        result, errors = asyncio.run(scenario())
        freq = np.zeros(m, dtype=np.int64)
        np.add.at(freq, ids, deltas)
        live = np.arange(m) % n != dead
        f = freq[live]
        size = len(f)
        asc = np.sort(f).tolist()
        desc = asc[::-1]
        total = int(f.sum())

        def holds(obj, frequency):
            return live[obj] and freq[obj] == frequency

        assert result.partial
        got = dict(zip((q.key for q in self.KINDS), result.values))
        assert got[Query.total().key] == total
        assert got[Query.active_count().key] == int((f != 0).sum())
        for v in (0, 2):
            assert got[Query.support(v).key] == int((f == v).sum())
        for kind, best in (("mode", max(asc)), ("least", min(asc))):
            value = got[Query(kind).key]
            assert (value.frequency, value.count) == (best, asc.count(best))
            assert holds(value.example, best)
        assert got[Query.max_frequency().key] == max(asc)
        assert got[Query.min_frequency().key] == min(asc)
        values, counts = np.unique(f, return_counts=True)
        assert got[Query.histogram().key] == list(
            zip(values.tolist(), counts.tolist())
        )
        assert got[Query.median().key] == asc[(size - 1) // 2]
        for q in (0.9, 0.99):
            assert got[Query.quantile(q).key] == asc[quantile_rank(q, size)]
        top = got[Query.top_k(10).key]
        assert [e.frequency for e in top] == desc[:10]
        assert len({e.obj for e in top}) == 10
        assert all(holds(e.obj, e.frequency) for e in top)
        for k in (1, 12):
            entry = got[Query.kth_most_frequent(k).key]
            assert entry.frequency == desc[k - 1]
            assert holds(entry.obj, entry.frequency)
        hitters = got[Query.heavy_hitters(0.02).key]
        expected = np.flatnonzero(live & (freq > 0.02 * total))
        assert sorted(e.obj for e in hitters) == expected.tolist()
        assert [e.frequency for e in hitters] == sorted(
            freq[expected].tolist(), reverse=True
        )
        # No partial answer to a per-object read on the dead partition;
        # a k past the live universe is out of range.
        assert errors == [ReplicaUnavailableError, CapacityError]


class TestServeCliClusterPieces:
    def test_parse_partition(self):
        assert _parse_partition(None) is None
        assert _parse_partition("0/3") == (0, 3)
        assert _parse_partition("2/3") == (2, 3)
        for bad in ("3/3", "-1/3", "1", "a/b", "1/0"):
            with pytest.raises(SystemExit):
                _parse_partition(bad)

    def test_port_file_written_atomically(self, tmp_path):
        target = tmp_path / "svc.port"
        _write_port_file(str(target), 4242)
        assert target.read_text() == "4242\n"
        # No tmp residue: the rename consumed it.
        assert list(tmp_path.iterdir()) == [target]

    def test_array_engine_flag(self):
        from repro.server.cli import build_parser

        args = build_parser().parse_args(
            ["--capacity", "100", "--backend", "flat", "--array-engine"]
        )
        assert args.array_engine is True
        assert build_parser().parse_args(
            ["--capacity", "100"]
        ).array_engine is False


class TestClusterCliParser:
    def test_flags(self):
        from repro.cluster.cli import build_parser

        args = build_parser().parse_args(
            ["--capacity", "1000", "--replicas", "4",
             "--snapshot-every", "16", "--replica-backend", "exact"]
        )
        assert args.capacity == 1000
        assert args.replicas == 4
        assert args.snapshot_every == 16
        assert args.replica_backend == "exact"
        assert args.status is False

    def test_status_flag(self):
        from repro.cluster.cli import build_parser

        args = build_parser().parse_args(["--status", "--port", "7777"])
        assert args.status and args.port == 7777

    def test_module_entrypoint(self):
        import repro.cluster.__main__  # noqa: F401 - importable

        from repro.cluster.cli import main

        assert callable(main)
