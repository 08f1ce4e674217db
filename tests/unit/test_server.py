"""Unit tests for the micro-batching service and its clients.

Async scenarios run under ``asyncio.run`` (no event-loop plugin
needed); blocking-client scenarios go through :class:`ServerThread`.
The equivalence of coalesced execution against a directly-driven
facade is property-tested in
``tests/property/test_prop_server_equivalence.py``; here we pin the
mechanics — coalescing, isolation of rejections, ordering, drain,
backpressure.  Cross-batch admission itself is the facade's
(``tests/unit/test_ingest_batches.py``).
"""

import asyncio
import gc
import json
import socket
import threading
import time
import warnings

import pytest

from repro.api import Profiler, Query
from repro.errors import (
    CapacityError,
    EmptyProfileError,
    FrequencyUnderflowError,
    UnsupportedQueryError,
)
from repro.server import (
    AsyncProfileClient,
    ProfileClient,
    ProfileServer,
    ServerThread,
)
from repro.server.protocol import ProtocolError, pack_frame
from repro.testing import (
    FaultSchedule,
    active_schedule,
    arm,
    disarm,
    hold_flusher,
)


def run(coro):
    return asyncio.run(coro)


class TestBlockingRoundTrip:
    @pytest.fixture(scope="class")
    def served(self):
        with ServerThread(Profiler.open(100)) as server:
            with ProfileClient(server.host, server.port) as client:
                yield client

    def test_hello_names_the_backend(self, served):
        assert served.hello["server"] == "repro.server"
        assert served.hello["backend"] == "flat"
        assert served.hello["capacity"] == 100

    def test_ingest_returns_net_units(self, served):
        # Opposing deltas for one key cancel before anything is
        # counted (facade batch semantics): net is {1: +1, 2: +1}.
        assert served.ingest([(1, +2), (2, +1), (1, -1)]) == 2

    def test_full_event_vocabulary(self, served):
        from repro.streams.events import Action, Event

        n = served.ingest([Event(5, Action.ADD), (5, True), (6, +2)])
        assert n == 4
        assert served.frequency(5) >= 2

    def test_evaluate_fused_plan(self, served):
        served.ingest({7: 5})
        result = served.evaluate(
            Query.mode(), Query.top_k(2), Query.histogram(), Query.total()
        )
        assert result["mode"].frequency == served.frequency(7)
        assert result["top_k"][0].frequency == result["mode"].frequency
        assert sum(count for _, count in result["histogram"]) == 100

    def test_describe_carries_server_block(self, served):
        info = served.describe()
        assert info["backend"] == "flat"
        server = info["server"]
        assert server["wire_batches"] >= 1
        assert server["flushes"] >= 1

    def test_checkpoint_restores_identically(self, served):
        served.ingest({3: 4})
        state = served.checkpoint()
        restored = Profiler.from_state(state)
        assert restored.frequency(3) == served.frequency(3)
        assert restored.histogram() == served.evaluate(Query.histogram())[0]

    def test_ping(self, served):
        assert 0 <= served.ping() < 5.0

    def test_rejection_raises_library_type(self, served):
        with pytest.raises(CapacityError, match="out of range"):
            served.ingest([(100, +1)])

    def test_close_is_idempotent(self):
        with ServerThread(Profiler.open(10)) as server:
            client = ProfileClient(server.host, server.port)
            client.ingest({1: 1})
            client.close()
            client.close()


class TestMicroBatching:
    def test_pipelined_writes_coalesce(self):
        async def scenario():
            async with ProfileServer(
                Profiler.open(50), batch_max=512
            ) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                async with hold_flusher(server, queued=40):
                    futures = [
                        await client.ingest([(i % 50, +1)], wait=False)
                        for i in range(40)
                    ]
                acks = await asyncio.gather(*futures)
                await client.aclose()
                return server.stats, [a["applied"] for a in acks]

        stats, applied = run(scenario())
        assert applied == [1] * 40
        assert stats.wire_batches == 40
        # Coalescing must have merged wire batches into fewer engine
        # calls (all 40 queued while the flusher was busy).
        assert stats.flushes < 40
        assert stats.max_flush_events > 1

    def test_group_commit_needs_no_timer(self):
        """A lone batch on an idle server flushes at once — the flusher
        schedules no timer before it — and batches that queue during a
        slow flush leave together, in groups of at most batch_max."""

        async def scenario():
            loop = asyncio.get_running_loop()
            timer_tasks = []
            call_at = loop.call_at

            def spy(when, callback, *args, **kwargs):
                timer_tasks.append(asyncio.current_task())
                return call_at(when, callback, *args, **kwargs)

            server = ProfileServer(Profiler.open(50), batch_max=8)
            async with server:
                flushes = []
                flush = server._flush

                async def recorded(batch):
                    flushes.append(
                        (
                            sum(len(item.data) for item in batch),
                            timer_tasks.count(server._flusher),
                        )
                    )
                    await flush(batch)

                server._flush = recorded
                client = await AsyncProfileClient.connect(port=server.port)
                loop.call_at = spy
                try:
                    assert await client.ingest([(1, +1)]) == 1
                finally:
                    del loop.call_at
                gate = asyncio.Event()
                arm(FaultSchedule([("service.flush", 0, gate.wait)]))
                try:
                    slow = await client.ingest([(2, +1)], wait=False)
                    while not active_schedule().fired:
                        await asyncio.sleep(0.001)
                    queued = [
                        await client.ingest([(3, +1)], wait=False)
                        for _ in range(12)
                    ]
                    while server._queue.qsize() < 12:
                        await asyncio.sleep(0.001)
                    gate.set()
                    await slow
                    await asyncio.gather(*queued)
                finally:
                    disarm()
                await client.aclose()
                return flushes, server.stats

        flushes, stats = run(scenario())
        # The lone batch: flushed, no timer scheduled by the flusher.
        assert flushes[0] == (1, 0)
        # The slow flush, then the 12 queued behind it in two groups.
        assert [events for events, _timers in flushes] == [1, 1, 8, 4]
        assert stats.max_flush_events == 8

    def test_batch_max_one_disables_coalescing(self):
        async def scenario():
            async with ProfileServer(
                Profiler.open(50), batch_max=1
            ) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                futures = [
                    await client.ingest([(i % 50, +1)], wait=False)
                    for i in range(20)
                ]
                await asyncio.gather(*futures)
                await client.aclose()
                return server.stats

        stats = run(scenario())
        assert stats.flushes == 20
        assert stats.max_flush_events == 1

    def test_seq_is_a_total_order(self):
        async def scenario():
            async with ProfileServer(Profiler.open(50)) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                futures = [
                    await client.ingest([(1, +1)], wait=False)
                    for _ in range(10)
                ]
                acks = await asyncio.gather(*futures)
                await client.aclose()
                return [a["seq"] for a in acks]

        seqs = run(scenario())
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 10

    def test_query_sees_consistent_batch_boundary(self):
        """A query enqueued after N wire batches observes exactly N."""

        async def scenario():
            async with ProfileServer(
                Profiler.open(50), batch_max=10_000
            ) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                async with hold_flusher(server, queued=8):
                    for _ in range(7):
                        await client.ingest([(3, +1)], wait=False)
                    # The evaluate rides the same pipeline, queued in
                    # one group with the 7 batches: it must flush them
                    # before answering.
                    query = asyncio.ensure_future(
                        client.evaluate(Query.frequency(3))
                    )
                result = await query
                await client.aclose()
                return result[0]

        assert run(scenario()) == 7


class TestRejectionIsolation:
    def test_strict_underflow_hits_only_the_offender(self):
        async def scenario():
            profiler = Profiler.open(20, strict=True)
            async with ProfileServer(profiler) as server:
                good = await AsyncProfileClient.connect(port=server.port)
                bad = await AsyncProfileClient.connect(port=server.port)
                async with hold_flusher(server, queued=3):
                    f_good = await good.ingest([(1, +2)], wait=False)
                    f_bad = await bad.ingest([(2, -1)], wait=False)
                    f_good2 = await good.ingest([(3, +1)], wait=False)
                ok1 = await f_good
                ok2 = await f_good2
                with pytest.raises(FrequencyUnderflowError):
                    await f_bad
                freq = await good.evaluate(
                    Query.frequency(1), Query.frequency(2), Query.frequency(3)
                )
                await good.aclose()
                await bad.aclose()
                return ok1["applied"], ok2["applied"], tuple(freq.values)

        applied1, applied2, freqs = run(scenario())
        assert (applied1, applied2) == (2, 1)
        assert freqs == (2, 0, 1)

    def test_masking_cancellation_does_not_resurrect_a_rejected_batch(self):
        """Strict mode, freq(x)=0: wire batch A removes x, B adds x.

        Net-summed across the flush the deltas cancel, but sequential
        semantics reject A and apply B — the exact case that forbids
        blind coalescing.
        """

        async def scenario():
            profiler = Profiler.open(10, strict=True)
            async with ProfileServer(profiler) as server:
                a = await AsyncProfileClient.connect(port=server.port)
                b = await AsyncProfileClient.connect(port=server.port)
                async with hold_flusher(server, queued=2):
                    f_a = await a.ingest([(4, -1)], wait=False)
                    f_b = await b.ingest([(4, +1)], wait=False)
                outcome_a = None
                try:
                    await f_a
                except FrequencyUnderflowError as exc:
                    outcome_a = exc
                applied_b = (await f_b)["applied"]
                freq = (await b.evaluate(Query.frequency(4)))[0]
                await a.aclose()
                await b.aclose()
                return outcome_a, applied_b, freq

        outcome_a, applied_b, freq = run(scenario())
        assert isinstance(outcome_a, FrequencyUnderflowError)
        assert applied_b == 1
        assert freq == 1

    def test_bad_id_rejected_even_when_net_zero(self):
        with ServerThread(Profiler.open(5)) as server:
            with ProfileClient(server.host, server.port) as client:
                with pytest.raises(CapacityError):
                    client.ingest([(9, +1), (9, -1)])
                assert client.total() == 0

    def test_protocol_reject_keeps_connection_alive(self):
        with ServerThread(Profiler.open(5)) as server:
            with ProfileClient(server.host, server.port) as client:
                from repro.server.protocol import ProtocolError

                with pytest.raises(ProtocolError):
                    client.request("ingest", events=[["a", 1]])
                assert client.ingest({2: 3}) == 3

    def test_unknown_op_rejected(self):
        with ServerThread(Profiler.open(5)) as server:
            with ProfileClient(server.host, server.port) as client:
                from repro.server.protocol import ProtocolError

                with pytest.raises(ProtocolError, match="unknown op"):
                    client.request("explode")

    def test_query_errors_transport_types(self):
        with ServerThread(Profiler.open(0)) as server:
            with ProfileClient(server.host, server.port) as client:
                with pytest.raises(EmptyProfileError):
                    client.mode()
        sketch = Profiler.open(backend="approx", counters=4)
        with ServerThread(sketch) as server:
            with ProfileClient(server.host, server.port) as client:
                client.ingest({"a": 2})
                with pytest.raises(UnsupportedQueryError) as excinfo:
                    client.evaluate(Query.median())
                assert excinfo.value.query == "median"


class TestLifecycle:
    def test_graceful_drain_acks_everything_queued(self):
        async def scenario():
            profiler = Profiler.open(100)
            server = ProfileServer(profiler)
            await server.start()
            client = await AsyncProfileClient.connect(port=server.port)
            # 30 batches plus the drain's stop marker.
            async with hold_flusher(server, queued=31):
                futures = [
                    await client.ingest([(i % 100, +1)], wait=False)
                    for i in range(30)
                ]
                # Wait until the reader has accepted all 30 into the
                # pipeline (the drain guarantee covers queued requests,
                # not bytes still in socket buffers), then stop while
                # the flusher is still busy: the drain must flush and
                # ack all 30.
                while server.stats.requests < 30:
                    await asyncio.sleep(0.001)
                stopping = asyncio.ensure_future(server.stop())
            await stopping
            acks = await asyncio.gather(*futures, return_exceptions=True)
            await client.aclose()
            return profiler, acks

        profiler, acks = run(scenario())
        applied = [a for a in acks if isinstance(a, dict)]
        assert len(applied) == 30
        assert profiler.total == 30

    def test_stop_is_idempotent_and_concurrent_safe(self):
        async def scenario():
            server = ProfileServer(Profiler.open(10))
            await server.start()
            await asyncio.gather(server.stop(), server.stop())
            await server.stop()
            return True

        assert run(scenario())

    def test_backpressure_bound_never_corrupts(self):
        async def scenario():
            profiler = Profiler.open(50)
            async with ProfileServer(
                profiler, queue_size=2, batch_max=4
            ) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                futures = [
                    await client.ingest([(i % 50, +1)], wait=False)
                    for i in range(200)
                ]
                acks = await asyncio.gather(*futures)
                await client.aclose()
                return profiler.total, len(acks)

        total, n_acks = run(scenario())
        assert (total, n_acks) == (200, 200)

    def test_slow_client_is_dropped_not_obeyed(self):
        """A peer whose ack writes stall must not hold the flusher
        (and everyone else) past write_timeout.

        The stall is injected by making the victim's transport report
        a buffer above its high-water mark (so the server drains) and
        stubbing its ``drain`` (kernel socket buffers on loopback are
        far too generous to fill quickly in a unit test); what is
        under test is the server's timeout -> abort -> carry-on path.
        """

        async def scenario():
            profiler = Profiler.open(50)
            async with ProfileServer(
                profiler, write_timeout=0.05
            ) as server:
                victim = await AsyncProfileClient.connect(port=server.port)
                assert await victim.ingest([(1, +1)]) == 1
                for conn in server._conns:
                    transport = conn.writer.transport
                    high = transport.get_write_buffer_limits()[1]
                    transport.get_write_buffer_size = (
                        lambda high=high: high + 1
                    )
                    conn.writer.drain = lambda: asyncio.sleep(3600)
                stalled = await victim.ingest([(1, +1)], wait=False)
                healthy = await AsyncProfileClient.connect(port=server.port)
                for _ in range(50):
                    if server.stats.connections_dropped:
                        break
                    await asyncio.sleep(0.02)
                dropped = server.stats.connections_dropped
                applied = await healthy.ingest([(2, +1)])
                freq = await healthy.frequency(2)
                stalled.cancel()
                await healthy.aclose()
                await victim.aclose()
                return dropped, applied, freq

        dropped, applied, freq = run(scenario())
        assert dropped >= 1
        assert (applied, freq) == (1, 1)

    def test_healthy_ack_skips_the_drain_timeout(self, monkeypatch):
        """An ack to a peer that keeps reading is one buffered write:
        it never enters ``wait_for`` (no Task, no timer handle, no
        extra loop turn per ack).  Only a transport above its
        high-water mark is drained under ``write_timeout``."""
        drains = []
        wait_for = asyncio.wait_for

        def spy(aw, timeout):
            if getattr(aw, "__qualname__", "") == "StreamWriter.drain":
                drains.append(timeout)
            return wait_for(aw, timeout)

        async def scenario():
            profiler = Profiler.open(50)
            async with ProfileServer(
                profiler, write_timeout=7.0
            ) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                for i in range(20):
                    assert await client.ingest([(i, +1)]) == 1
                assert await client.total() == 20
                healthy = list(drains)
                (conn,) = server._conns
                transport = conn.writer.transport
                high = transport.get_write_buffer_limits()[1]
                transport.get_write_buffer_size = lambda: high + 1
                assert await client.ingest([(0, +1)]) == 1
                del transport.get_write_buffer_size
                await client.aclose()
                return healthy

        monkeypatch.setattr(asyncio, "wait_for", spy)
        assert run(scenario()) == []
        assert drains == [7.0]


class TestCli:
    def test_parser_flags(self):
        from repro.server.cli import build_parser

        args = build_parser().parse_args(
            [
                "--capacity", "100", "--backend", "sharded", "--shards",
                "4", "--port", "0", "--batch-max", "128",
                "--queue-size", "64", "--strict",
            ]
        )
        assert args.capacity == 100
        assert args.backend == "sharded"
        assert args.shards == 4
        assert args.batch_max == 128
        assert args.queue_size == 64
        assert args.strict is True
        # Group commit replaced the linger timer: the flag is gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--capacity", "100", "--linger-ms", "2.5"]
            )

    def test_serve_module_exposes_main(self):
        from repro import serve

        assert callable(serve.main)
        assert serve.build_parser().prog == "python -m repro.serve"


class TestCoalescingEdgeCases:
    """Regressions from review: cross-batch cancellation and ordering."""

    def test_cancelled_fresh_key_still_claims_its_interned_slot(self):
        """Wire batches [('x',+1)] then [('x',-1)] net to zero across
        the flush, but sequential semantics register 'x' — a later
        fresh key must overflow a 1-slot universe exactly as it would
        against a directly-driven facade."""

        async def scenario():
            profiler = Profiler.open(
                1, backend="flat", keys="hashable"
            )
            async with ProfileServer(profiler) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                async with hold_flusher(server, queued=2):
                    f1 = await client.ingest([("x", +1)], wait=False)
                    f2 = await client.ingest([("x", -1)], wait=False)
                await asyncio.gather(f1, f2)
                outcome = None
                try:
                    await client.ingest([("y", +1)])
                except CapacityError as exc:
                    outcome = exc
                support = (await client.evaluate(Query.support(0)))[0]
                await client.aclose()
                return outcome, support

        outcome, support = run(scenario())
        assert isinstance(outcome, CapacityError)
        assert support == 1  # 'x' is registered at frequency 0

    def test_cancelled_fresh_key_registers_on_dynamic_universe(self):
        async def scenario():
            profiler = Profiler.open(keys="hashable")
            async with ProfileServer(profiler) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                async with hold_flusher(server, queued=2):
                    f1 = await client.ingest([("ghost", +2)], wait=False)
                    f2 = await client.ingest([("ghost", -2)], wait=False)
                await asyncio.gather(f1, f2)
                support = (await client.evaluate(Query.support(0)))[0]
                await client.aclose()
                return support, len(profiler)

        support, size = run(scenario())
        assert support == 1
        assert size == 1

    def test_acks_follow_request_order_per_connection(self):
        """A rejection decided during admission must not overtake the
        ack of an earlier request coalesced into the same flush."""

        async def scenario():
            from repro.server.protocol import pack_frame, read_frame

            async with ProfileServer(Profiler.open(5)) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await read_frame(reader)  # hello
                async with hold_flusher(server, queued=2):
                    writer.write(
                        pack_frame(
                            {"id": 1, "op": "ingest", "events": [[1, 1]]}
                        )
                    )
                    writer.write(
                        pack_frame(
                            {"id": 2, "op": "ingest", "events": [[99, 1]]}
                        )
                    )
                    await writer.drain()
                first = await read_frame(reader)
                second = await read_frame(reader)
                writer.close()
                return first, second

        first, second = run(scenario())
        assert (first["id"], second["id"]) == (1, 2)
        assert first["ok"] is True
        assert second["ok"] is False

    def test_tampered_negative_sketch_cells_rejected(self):
        from repro.errors import CheckpointError

        profiler = Profiler.open(backend="approx", counters=4)
        profiler.ingest({"hot": 3})
        state = profiler.to_state()
        state["profile"]["sketch"]["table"][0][0] = -5
        with pytest.raises(CheckpointError, match="negative"):
            Profiler.from_state(state)


class TestBinaryCodec:
    """Negotiation, mixed-codec service, and adversarial robustness of
    the binary wire path (the codec itself is unit- and property-tested
    in ``test_server_protocol.py`` / ``test_prop_wire_roundtrip.py``)."""

    np = pytest.importorskip("numpy")

    def test_async_auto_negotiates_binary_on_dense(self):
        async def scenario():
            async with ProfileServer(Profiler.open(10)) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                assert client.codec == "binary"
                assert "binary" in client.hello["codecs"]
                ids = self.np.array([1, 2, 1], dtype="<i8")
                deltas = self.np.array([1, 1, 1], dtype="<i8")
                assert await client.ingest((ids, deltas)) == 3
                assert await client.frequency(1) == 2
                await client.aclose()

        run(scenario())

    def test_pair_lists_ride_binary_too(self):
        async def scenario():
            async with ProfileServer(Profiler.open(10)) as server:
                client = await AsyncProfileClient.connect(
                    port=server.port, codec="binary"
                )
                assert await client.ingest([(3, +2), (4, -1)]) == 3
                await client.aclose()

        run(scenario())

    def test_binary_refused_when_server_does_not_offer(self):
        from repro.server.protocol import ProtocolError

        async def scenario():
            async with ProfileServer(
                Profiler.open(10), binary=False
            ) as server:
                # auto degrades silently...
                client = await AsyncProfileClient.connect(port=server.port)
                assert client.codec == "json"
                assert client.hello["codecs"] == ["json"]
                await client.aclose()
                # ...an explicit ask fails loudly.
                with pytest.raises(ProtocolError, match="binary"):
                    await AsyncProfileClient.connect(
                        port=server.port, codec="binary"
                    )

        run(scenario())

    def test_hashable_backend_never_offers_binary(self):
        async def scenario():
            profiler = Profiler.open(10, keys="hashable")
            async with ProfileServer(profiler) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                assert client.codec == "json"
                assert await client.ingest([("clé", 1)]) == 1
                await client.aclose()

        run(scenario())

    def test_blocking_client_negotiates_and_rejects_in_binary(self):
        with ServerThread(Profiler.open(5, strict=True)) as server:
            with ProfileClient(server.host, server.port) as client:
                assert client.codec == "binary"
                assert client.ingest([(1, +2), (2, +1)]) == 3
                with pytest.raises(FrequencyUnderflowError):
                    client.ingest([(2, -4)])
                with pytest.raises(CapacityError):
                    client.ingest([(7, +1)])
                # The connection survives rejections and stays binary.
                assert client.ingest([(0, +1)]) == 1
                assert client.frequency(1) == 2

    def test_hello_must_be_first_request(self):
        from repro.server.protocol import ProtocolError

        async def scenario():
            async with ProfileServer(Profiler.open(5)) as server:
                client = await AsyncProfileClient.connect(
                    port=server.port, codec="json"
                )
                await client.ingest([(1, 1)])
                with pytest.raises(ProtocolError, match="first request"):
                    await client.request(
                        "hello", codec="binary", version=1
                    )
                await client.aclose()

        run(scenario())

    def test_wrong_version_rejected(self):
        import struct as _struct

        from repro.server.protocol import pack_frame, read_frame

        async def scenario():
            async with ProfileServer(Profiler.open(5)) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await read_frame(reader)  # greeting
                writer.write(
                    pack_frame(
                        {"id": 0, "op": "hello", "codec": "binary",
                         "version": 99}
                    )
                )
                await writer.drain()
                ack = await read_frame(reader)
                assert ack["ok"] is False
                assert "version" in ack["error"]["message"]
                writer.close()

        run(scenario())

    def test_malformed_binary_frame_kills_only_its_connection(self):
        from repro.server.protocol import (
            PROTOCOL_VERSION,
            pack_frame,
            read_frame,
        )

        async def scenario():
            profiler = Profiler.open(10)
            async with ProfileServer(profiler) as server:
                # A well-behaved bystander on the same server.
                good = await AsyncProfileClient.connect(port=server.port)
                assert await good.ingest([(1, +1)]) == 1

                # An adversary negotiates binary, then writes garbage.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await read_frame(reader)
                writer.write(
                    pack_frame(
                        {"id": 0, "op": "hello", "codec": "binary",
                         "version": PROTOCOL_VERSION}
                    )
                )
                writer.write(b"\xde\xad\xbe\xef" + b"\x00" * 20)
                await writer.drain()
                ack = await read_frame(reader)  # hello ack (JSON)
                assert ack["ok"] is True
                # The garbage header tears this connection down...
                data = await reader.read()
                writer.close()

                # ...while the bystander and the hosted state live on.
                assert await good.ingest([(1, +1)]) == 1
                assert await good.frequency(1) == 2
                await good.aclose()
                return data

        run(scenario())

    def test_client_side_ack_frames_are_rejected(self):
        from repro.server.protocol import (
            PROTOCOL_VERSION,
            encode_binary_acks,
            pack_frame,
            read_binary_frame,
            read_frame,
        )

        async def scenario():
            async with ProfileServer(Profiler.open(5)) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await read_frame(reader)
                writer.write(
                    pack_frame(
                        {"id": 0, "op": "hello", "codec": "binary",
                         "version": PROTOCOL_VERSION}
                    )
                )
                writer.write(encode_binary_acks([(1, 2, 3)]))
                await writer.drain()
                await read_frame(reader)  # hello ack
                reject = await read_binary_frame(reader)
                payload = reject.payload
                assert payload["ok"] is False
                assert "server-to-client" in payload["error"]["message"]
                # Frame-level violation: the server closes after it.
                assert await read_binary_frame(reader) is None
                writer.close()

        run(scenario())

    def test_binary_connections_counted(self):
        async def scenario():
            async with ProfileServer(Profiler.open(5)) as server:
                a = await AsyncProfileClient.connect(port=server.port)
                b = await AsyncProfileClient.connect(
                    port=server.port, codec="json"
                )
                await a.ingest([(1, 1)])
                await b.ingest([(2, 1)])
                info = await a.describe()
                assert info["server"]["binary_connections"] == 1
                assert info["server"]["codecs"] == ["json", "binary"]
                await a.aclose()
                await b.aclose()

        run(scenario())

    def test_non_integer_ids_cannot_ride_binary(self):
        from repro.server.protocol import ProtocolError

        async def scenario():
            async with ProfileServer(Profiler.open(5)) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                with pytest.raises(ProtocolError, match="integer"):
                    await client.ingest([("a", 1)])
                await client.aclose()

        run(scenario())


class TestHealthOp:
    def test_health_over_both_clients(self):
        async def scenario():
            async with ProfileServer(Profiler.open(50)) as server:
                client = await AsyncProfileClient.connect(port=server.port)
                await client.ingest([(1, 2)])
                info = await client.health()
                assert info["role"] == "standalone"
                assert info["partition"] is None
                assert info["backend"] == "flat"
                assert info["keys"] == "dense"
                assert info["capacity"] == 50
                assert info["strict"] is False
                assert info["seq"] >= 1
                assert info["queue_depth"] >= 0
                assert info["connections"] >= 1
                assert info["draining"] is False
                await client.aclose()

        run(scenario())
        with ServerThread(Profiler.open(50)) as server:
            with ProfileClient(server.host, server.port) as client:
                info = client.health()
                assert info["role"] == "standalone"
                assert info["backend"] == "flat"

    def test_health_first_request_on_binary_connection(self):
        """Health straight after codec negotiation: the out-of-band
        responder must already see the flipped tx codec (regression —
        the flip used to happen in the flusher, losing the race)."""
        with ServerThread(Profiler.open(50)) as server:
            for _ in range(8):
                with ProfileClient(server.host, server.port) as client:
                    assert client.codec == "binary"
                    assert client.health()["role"] == "standalone"

    def test_replica_role_surfaced(self):
        async def scenario():
            server = ProfileServer(
                Profiler.open(20), role="replica", partition=(1, 3)
            )
            async with server:
                client = await AsyncProfileClient.connect(port=server.port)
                assert client.hello["role"] == "replica"
                info = await client.health()
                assert info["role"] == "replica"
                assert info["partition"] == [1, 3]
                assert (await client.describe())["server"]["role"] == (
                    "replica"
                )
                await client.aclose()

        run(scenario())

    def test_health_answers_while_pipeline_is_backed_up(self):
        """The liveness probe overtakes queued ingest work."""

        async def scenario():
            server = ProfileServer(Profiler.open(50), batch_max=1000)
            async with server:
                client = await AsyncProfileClient.connect(
                    port=server.port, codec="json"
                )
                async with hold_flusher(server, queued=64):
                    futures = [
                        await client.ingest([(i % 50, 1)], wait=False)
                        for i in range(64)
                    ]
                    info = await client.health()
                    assert info["queue_depth"] >= 0
                for future in futures:
                    await future
                await client.aclose()

        run(scenario())


class TestRestoreOp:
    def test_restore_swaps_state(self):
        async def scenario():
            async with ProfileServer(Profiler.open(30)) as a:
                client = await AsyncProfileClient.connect(port=a.port)
                await client.ingest([(3, 5), (7, 2)])
                state = await client.checkpoint()
                await client.aclose()
            async with ProfileServer(Profiler.open(30)) as b:
                client = await AsyncProfileClient.connect(port=b.port)
                await client.ingest([(9, 9)])
                # Returns the restored backend's name.
                assert await client.restore(state) == "flat"
                result = await client.evaluate(
                    Query.frequency(3), Query.frequency(9), Query.total()
                )
                assert result.values == (5, 0, 7)
                assert b.stats.restores == 1
                await client.aclose()

        run(scenario())

    def test_restore_is_an_ordered_barrier(self):
        """Ingest pipelined behind a restore lands on the new state."""

        async def scenario():
            async with ProfileServer(Profiler.open(30)) as a:
                client = await AsyncProfileClient.connect(port=a.port)
                await client.ingest([(1, 1)])
                state = await client.checkpoint()
                await client.aclose()
            async with ProfileServer(Profiler.open(30), batch_max=100) as b:
                client = await AsyncProfileClient.connect(port=b.port)
                async with hold_flusher(b, queued=2):
                    # Pipelined ahead of the restore: applies to (and
                    # is acked against) the old profiler, then is wiped.
                    before = await client.ingest([(2, 7)], wait=False)
                    restoring = asyncio.ensure_future(client.restore(state))
                assert await restoring == "flat"
                assert (await before)["applied"] == 7
                # Behind the restore: lands on the restored state.
                assert await client.ingest([(2, 1)]) == 1
                result = await client.evaluate(
                    Query.frequency(1), Query.frequency(2)
                )
                assert result.values == (1, 1)
                await client.aclose()

        run(scenario())

    def test_restore_refuses_mismatched_identity(self):
        from repro.errors import CheckpointError

        async def scenario():
            async with ProfileServer(Profiler.open(30)) as a:
                client = await AsyncProfileClient.connect(port=a.port)
                state = await client.checkpoint()
                await client.aclose()
            async with ProfileServer(Profiler.open(10)) as b:
                client = await AsyncProfileClient.connect(port=b.port)
                with pytest.raises(CheckpointError, match="capacity"):
                    await client.restore(state)
                # The hosted state survived the refusal.
                assert (await client.health())["capacity"] == 10
                await client.aclose()

        run(scenario())

    def test_blocking_client_restore(self):
        with ServerThread(Profiler.open(30)) as a:
            with ProfileClient(a.host, a.port) as client:
                client.ingest({4: 4})
                state = client.checkpoint()
        with ServerThread(Profiler.open(30)) as b:
            with ProfileClient(b.host, b.port) as client:
                assert client.restore(state) == "flat"
                assert client.frequency(4) == 4

    def test_restore_compares_declared_bounds(self):
        from repro.errors import CheckpointError

        source = Profiler.open(keys="hashable")
        source.ingest({"a": 2, "b": 1, "c": 1})
        state = source.to_state()
        # A growable replica takes any growable checkpoint, whatever
        # its registered key count; a bounded one refuses it.
        with ServerThread(Profiler.open(keys="hashable")) as growable:
            with ProfileClient(growable.host, growable.port) as client:
                client.ingest({"z": 1})
                assert client.restore(state) == "flat"
                assert client.frequency("a") == 2
        bounded = Profiler.open(3, backend="flat", keys="hashable")
        with ServerThread(bounded) as server:
            with ProfileClient(server.host, server.port) as client:
                with pytest.raises(CheckpointError, match="capacity"):
                    client.restore(state)

    def test_blocking_client_restore_of_malformed_state(self):
        from repro.errors import CheckpointError

        with ServerThread(Profiler.open(30)) as server:
            with ProfileClient(server.host, server.port) as client:
                client.ingest({4: 4})
                state = client.checkpoint()
                state["profile"]["n_adds"] = "x"
                with pytest.raises(CheckpointError, match="n_adds"):
                    client.restore(state)
                # The hosted state survived the refusal.
                assert client.frequency(4) == 4


class TestReconnect:
    def test_async_dial_backoff_gives_up_with_context(self):
        async def scenario():
            with pytest.raises(ConnectionError, match="after 2 attempts"):
                await AsyncProfileClient.connect(
                    port=1,  # reserved, nothing listens
                    reconnect=True,
                    backoff_base=0.01,
                    max_attempts=2,
                )

        run(scenario())

    def test_async_redials_on_next_request(self):
        async def scenario():
            profiler = Profiler.open(40)
            server = ProfileServer(profiler)
            await server.start()
            port = server.port
            client = await AsyncProfileClient.connect(
                port=port, reconnect=True, backoff_base=0.01
            )
            assert await client.ingest([(1, 2)]) == 2
            await server.stop()
            # Same port, fresh server: the next request heals the
            # connection transparently (and renegotiates the codec).
            server2 = ProfileServer(profiler, port=port)
            await server2.start()
            assert await client.ingest([(1, 3)]) == 3
            assert client.codec == "binary"
            await client.aclose()
            await server2.stop()
            profiler.close()

        run(scenario())

    def test_async_in_flight_futures_fail_descriptively(self):
        async def scenario():
            profiler = Profiler.open(40)
            server = ProfileServer(profiler, batch_max=1000)
            await server.start()
            client = await AsyncProfileClient.connect(
                port=server.port, reconnect=True
            )
            async with hold_flusher(server):
                future = await client.ingest([(1, 1)], wait=False)
                # Drop every connection server-side without acking.
                for conn in list(server._conns):
                    conn.writer.transport.abort()
                with pytest.raises(
                    ConnectionError, match="will not resend"
                ):
                    await future
            await client.aclose()
            await server.stop()
            profiler.close()

        run(scenario())

    def test_async_without_reconnect_raises(self):
        async def scenario():
            profiler = Profiler.open(40)
            server = ProfileServer(profiler)
            await server.start()
            client = await AsyncProfileClient.connect(port=server.port)
            await server.stop()
            profiler.close()
            with pytest.raises(ConnectionError):
                await client.ingest([(1, 1)])
            # And it stays failed: no silent redial without opt-in.
            with pytest.raises(ConnectionError):
                await client.health()
            await client.aclose()

        run(scenario())

    def test_blocking_redials_on_next_request(self):
        profiler = Profiler.open(40)
        with ServerThread(profiler) as server:
            port = server.port
            client = ProfileClient(
                server.host, port, reconnect=True, backoff_base=0.01
            )
            assert client.ingest({1: 2}) == 2
        # Server gone, replacement on the same port.  A blocking
        # client only discovers the drop at read time — that request
        # fails fate-unknown (never resent), and the *next* request
        # heals the connection transparently.
        with ServerThread(profiler, port=port):
            with pytest.raises(ConnectionError, match="will not resend"):
                client.ingest({1: 1})
            assert client.ingest({1: 1}) == 1
            assert client.codec == "binary"
            client.close()
        profiler.close()

    def test_blocking_dial_backoff_gives_up(self):
        with pytest.raises(ConnectionError, match="could not reach"):
            ProfileClient(
                port=1,
                reconnect=True,
                backoff_base=0.01,
                max_attempts=2,
            )


def _blocking_checkpoint(port, codec, max_frame):
    with ProfileClient(port=port, codec=codec, max_frame=max_frame) as c:
        return c.checkpoint()


def _async_checkpoint(port, codec, max_frame):
    async def scenario():
        client = await AsyncProfileClient.connect(
            port=port, codec=codec, max_frame=max_frame
        )
        try:
            return await client.checkpoint()
        finally:
            await client.aclose()

    return run(scenario())


class _SilentServer:
    """A raw socket that greets like a repro server, then never answers."""

    def __init__(self) -> None:
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._conns = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._sock.accept()
        except OSError:
            return
        self._conns.append(conn)
        conn.sendall(pack_frame({"server": "repro.server", "version": 1}))

    def close(self) -> None:
        self._sock.close()
        self._thread.join(5.0)
        for conn in self._conns:
            conn.close()


class TestClientContract:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize(
        "checkpoint", [_blocking_checkpoint, _async_checkpoint]
    )
    def test_max_frame_caps_every_reply(self, checkpoint, codec):
        profiler = Profiler.open(2000)
        profiler.ingest([(i, 1) for i in range(2000)])
        with ServerThread(profiler) as server:
            with ProfileClient(server.host, server.port) as client:
                assert len(json.dumps(client.checkpoint())) > 2048
            with pytest.raises((ConnectionError, ProtocolError)):
                checkpoint(server.port, codec, 2048)
        profiler.close()

    def test_empty_endpoint_list_is_rejected_without_dialling(
        self, monkeypatch
    ):
        async def no_dial(*args, **kwargs):
            raise AssertionError("dialled with an empty endpoint list")

        monkeypatch.setattr(asyncio, "open_connection", no_dial)
        with pytest.raises(ValueError, match="endpoints list is empty"):
            ProfileClient(endpoints=[])

        async def scenario():
            await AsyncProfileClient.connect(endpoints=[])

        with pytest.raises(ValueError, match="endpoints list is empty"):
            run(scenario())

    def test_blocking_timeout_bounds_the_whole_call(self):
        silent = _SilentServer()
        try:
            client = ProfileClient(port=silent.port, timeout=0.2)
            start = time.perf_counter()
            with pytest.raises(ConnectionError, match="will not resend"):
                client.ping()
            assert time.perf_counter() - start < 1.0
            start = time.perf_counter()
            client.close()
            assert time.perf_counter() - start < 1.0
        finally:
            silent.close()

    def test_blocking_client_refuses_a_running_loop(self):
        async def construct():
            ProfileClient(port=1)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="AsyncProfileClient"):
                run(construct())
            gc.collect()
        assert not [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "never awaited" in str(w.message)
        ]

    def test_blocking_verb_refuses_a_running_loop(self):
        with ServerThread(Profiler.open(10)) as server:
            with ProfileClient(server.host, server.port) as client:

                async def call():
                    client.ingest({1: 1})

                with pytest.raises(RuntimeError, match="AsyncProfileClient"):
                    run(call())
                # The refused call sent nothing; the client still works.
                assert client.total() == 0
