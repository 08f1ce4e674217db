"""Unit tests for the cluster-hardening building blocks.

Covers the deterministic fault-injection schedule, the jittered client
reconnect backoff (pinned sleep schedules via an injected RNG), the
replica-side 2PC staging ops, the mid-restore fail-fast contract, the
supervisor's respawn-storm escalation, and the router's new parameter
validation.  The end-to-end behaviors these enable live in the
integration and property suites.
"""

import asyncio

import pytest

from repro.api.facade import Profiler
from repro.errors import (
    CapacityError,
    ClusterUnhealthyError,
    FrequencyUnderflowError,
    ReplicaRecoveringError,
)
from repro.server.protocol import ProtocolError
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import ReplicaSupervisor
from repro.server.client import AsyncProfileClient, ProfileClient
from repro.server.service import ProfileServer
from repro.testing import faults
from repro.testing.faults import (
    FaultSchedule,
    InjectedFault,
    SimulatedCrash,
    arm,
    disarm,
    fault_point,
    fault_point_sync,
)


@pytest.fixture(autouse=True)
def _no_schedule_leaks():
    # Fault schedules are process-wide by design; never let one leak
    # out of the test that armed it.
    disarm()
    yield
    disarm()


# ----------------------------------------------------------------------
# FaultSchedule
# ----------------------------------------------------------------------


class TestFaultSchedule:
    def test_occurrence_counting_and_error(self):
        schedule = arm(FaultSchedule([("x", 1, "error")]))

        async def scenario():
            await fault_point("x")  # occurrence 0: free
            with pytest.raises(InjectedFault) as exc:
                await fault_point("x")  # occurrence 1: fires
            assert exc.value.point == "x"
            assert exc.value.occurrence == 1
            assert isinstance(exc.value, ConnectionError)
            await fault_point("x")  # occurrence 2: free again

        asyncio.run(scenario())
        assert schedule.counts == {"x": 3}
        assert schedule.fired == [("x", 1, "error")]
        assert schedule.unfired() == []

    def test_crash_is_not_an_exception(self):
        arm(FaultSchedule([("p", 0, "crash")]))
        with pytest.raises(SimulatedCrash) as exc:
            fault_point_sync("p")
        assert not isinstance(exc.value, Exception)
        assert isinstance(exc.value, BaseException)

    def test_delay_and_callable_actions(self):
        ran = []
        arm(
            FaultSchedule(
                [("d", 0, 0.0), ("c", 0, lambda: ran.append("sync"))]
            )
        )

        async def scenario():
            await fault_point("d")  # sleeps 0.0 — must not raise
            await fault_point("c")

        asyncio.run(scenario())
        assert ran == ["sync"]
        fault_point_sync("d")  # occurrence 1: free

    def test_async_callable_awaited(self):
        ran = []

        async def boom():
            ran.append("async")

        arm(FaultSchedule([("c", 0, boom)]))
        asyncio.run(fault_point("c"))
        assert ran == ["async"]

    def test_disarm_frees_every_point(self):
        arm(FaultSchedule([("x", 0, "error")]))
        disarm()
        fault_point_sync("x")  # no raise
        assert faults.active_schedule() is None

    def test_unfired_names_stale_triggers(self):
        schedule = arm(
            FaultSchedule([("x", 0, "error"), ("never", 3, "crash")])
        )
        with pytest.raises(InjectedFault):
            fault_point_sync("x")
        assert schedule.unfired() == [("never", 3)]

    def test_random_is_seed_deterministic(self):
        points = ["a.b", "c.d", "e.f"]
        one = FaultSchedule.random(7, points, n_faults=5)
        two = FaultSchedule.random(7, points, n_faults=5)
        assert one._triggers == two._triggers
        assert len(one) == len(one._triggers) <= 5  # collisions collapse
        other = FaultSchedule.random(8, points, n_faults=5)
        # Not guaranteed distinct in principle, but with 3 points x 8
        # occurrences x 3 actions a collision across seeds 7/8 would be
        # a broken RNG.
        assert one._triggers != other._triggers

    def test_random_rejects_empty_points(self):
        with pytest.raises(ValueError):
            FaultSchedule.random(1, [])

    def test_from_spec_round_trip(self):
        schedule = FaultSchedule.from_spec(
            "router.fanout:3:delay:0.05, supervisor.spawn:1:error,"
            "wal.sync:0:crash,"
        )
        assert schedule._triggers == {
            ("router.fanout", 3): 0.05,
            ("supervisor.spawn", 1): "error",
            ("wal.sync", 0): "crash",
        }

    @pytest.mark.parametrize(
        "spec",
        [
            "router.fanout",  # too few fields
            "x:1:delay",  # delay without seconds
            "x:1:error:zap",  # error takes no arg
            "x:1:frobnicate",  # unknown action
            "x:-1:error",  # negative occurrence
        ],
    )
    def test_from_spec_rejects(self, spec):
        with pytest.raises(ValueError):
            FaultSchedule.from_spec(spec)

    @pytest.mark.parametrize("action", [True, -0.5, None, "sigkill"])
    def test_invalid_actions_reject(self, action):
        with pytest.raises(ValueError):
            FaultSchedule([("x", 0, action)])


# ----------------------------------------------------------------------
# Jittered reconnect backoff — pinned sleep schedules
# ----------------------------------------------------------------------


def _rng_from(values):
    it = iter(values)
    return lambda: next(it)


class TestBackoffJitter:
    def test_async_dial_schedule_pinned(self, monkeypatch):
        slept = []

        async def fake_sleep(delay):
            slept.append(delay)

        monkeypatch.setattr(asyncio, "sleep", fake_sleep)

        async def scenario():
            with pytest.raises(ConnectionError):
                # Port 1 on localhost: nothing listens, dial refuses.
                await AsyncProfileClient._dial_backoff(
                    "127.0.0.1", 1, "binary", 1 << 20,
                    0.05, 0.2, 4,
                    0.5, _rng_from([0.0, 1.0, 0.5, 0.25]),
                )

        asyncio.run(scenario())
        # delay doubles 0.05 -> 0.1 -> 0.2 (capped); each sleep is
        # delay * (1 - jitter * rng()).
        assert slept == pytest.approx([0.05, 0.05, 0.15, 0.175])

    def test_async_dial_zero_jitter_is_nominal(self, monkeypatch):
        slept = []

        async def fake_sleep(delay):
            slept.append(delay)

        monkeypatch.setattr(asyncio, "sleep", fake_sleep)

        async def scenario():
            with pytest.raises(ConnectionError):
                await AsyncProfileClient._dial_backoff(
                    "127.0.0.1", 1, "binary", 1 << 20,
                    0.05, 0.2, 4,
                    0.0, _rng_from([0.9, 0.9, 0.9, 0.9]),
                )

        asyncio.run(scenario())
        assert slept == pytest.approx([0.05, 0.1, 0.2, 0.2])

    def test_blocking_dial_schedule_pinned(self, monkeypatch):
        slept = []

        async def fake_sleep(delay):
            slept.append(delay)

        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        with pytest.raises(ConnectionError):
            # Port 1 on localhost: nothing listens, dial refuses.
            ProfileClient(
                port=1,
                reconnect=True,
                max_attempts=3,
                backoff_base=0.05,
                backoff_max=0.2,
                backoff_jitter=0.5,
                backoff_rng=_rng_from([1.0, 0.0, 1.0]),
            )
        assert slept == pytest.approx([0.025, 0.1, 0.1])


# ----------------------------------------------------------------------
# Replica-side 2PC staging
# ----------------------------------------------------------------------


async def _start_replica(m=32):
    profiler = Profiler.open(m, backend="flat")
    server = ProfileServer(profiler)
    await server.start()
    client = await AsyncProfileClient.connect(port=server.port)
    return server, client


class TestTwoPhaseOps:
    def test_prepare_commit_abort(self):
        async def scenario():
            server, client = await _start_replica()
            try:
                await client.ingest([(3, +2), (4, +1)])
                assert await client.prepare(1, [3, 5], [1, 2]) == 1
                # Staging applies nothing until the decision.
                assert await client.frequency(5) == 0
                # "applied" counts events, |+1| + |+2| here.
                assert await client.commit_txn(1) == 3
                assert await client.frequency(5) == 2
                assert await client.frequency(3) == 3
                # Abort is idempotent, even for unknown transactions.
                assert await client.abort_txn(1) is True
                assert await client.abort_txn(99) is True
                with pytest.raises(ProtocolError):
                    await client.commit_txn(1)  # already decided
            finally:
                await client.aclose()
                await server.stop()

        asyncio.run(scenario())

    def test_prepare_validates_against_staged_overlay(self):
        async def scenario():
            server, client = await _start_replica()
            try:
                await client.ingest([(3, +2)])
                # txn 1 stages the removal of both copies of 3 …
                await client.prepare(1, [3], [-2])
                # … so txn 2's further removal would underflow the
                # would-be frequency even though the live one is 2.
                with pytest.raises(FrequencyUnderflowError):
                    await client.prepare(2, [3], [-1])
                with pytest.raises(CapacityError):
                    await client.prepare(3, [99], [1])
                assert await client.commit_txn(1) == 2
                assert await client.frequency(3) == 0
                health = await client.health()
                assert health["staged_txns"] == 0
            finally:
                await client.aclose()
                await server.stop()

        asyncio.run(scenario())

    def test_restore_clears_staged(self):
        async def scenario():
            server, client = await _start_replica()
            try:
                state = await client.checkpoint()
                await client.prepare(1, [2], [1])
                assert (await client.health())["staged_txns"] == 1
                await client.restore(state)
                with pytest.raises(ProtocolError):
                    await client.commit_txn(1)
            finally:
                await client.aclose()
                await server.stop()

        asyncio.run(scenario())


class TestRecoveringFailFast:
    def test_queries_fail_fast_until_resume(self):
        async def scenario():
            server, client = await _start_replica()
            try:
                await client.ingest([(1, +1)])
                state = await client.checkpoint()
                await client.restore(state, recovering=True)
                # Reads fail fast with the typed, retryable error …
                with pytest.raises(ReplicaRecoveringError) as exc:
                    await client.evaluate()
                assert exc.value.retryable
                with pytest.raises(ReplicaRecoveringError):
                    await client.checkpoint()
                with pytest.raises(ReplicaRecoveringError):
                    await client.describe()
                # … while replay ingest and health stay open.
                assert await client.ingest([(2, +1)]) == 1
                health = await client.health()
                assert health["recovering"] is True
                assert await client.resume() is True
                assert (await client.health())["recovering"] is False
                assert await client.frequency(2) == 1
            finally:
                await client.aclose()
                await server.stop()

        asyncio.run(scenario())

    def test_plain_restore_does_not_gate(self):
        async def scenario():
            server, client = await _start_replica()
            try:
                state = await client.checkpoint()
                await client.restore(state)
                assert await client.total() == 0
            finally:
                await client.aclose()
                await server.stop()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Supervisor respawn-storm escalation
# ----------------------------------------------------------------------


class TestRespawnStorm:
    def _rigged(self, tmp_path, **kw):
        sup = ReplicaSupervisor(
            10, 1, workdir=tmp_path, max_respawn_burst=2, **kw
        )
        sup._spawn = lambda p: None
        sup.alive = lambda p: False

        async def fake_wait(p):
            return 4242

        sup._wait_port = fake_wait
        return sup

    def test_storm_escalates_and_sticks(self, tmp_path):
        sup = self._rigged(tmp_path, respawn_window=60.0)

        async def scenario():
            for _ in range(2):  # within the burst allowance
                host, port = await sup.ensure_replica(0)
                assert (host, port) == ("127.0.0.1", 4242)
            assert sup.unhealthy is None
            with pytest.raises(ClusterUnhealthyError) as exc:
                await sup.ensure_replica(0)
            assert exc.value.retryable is False
            assert "crash-looping" in str(exc.value)
            # Sticky: no further respawns are attempted.
            before = sup.respawns
            with pytest.raises(ClusterUnhealthyError):
                await sup.ensure_replica(0)
            assert sup.respawns == before
            assert sup.unhealthy is not None

        asyncio.run(scenario())

    def test_respawns_outside_window_do_not_count(self, tmp_path):
        sup = self._rigged(tmp_path, respawn_window=30.0)

        async def scenario():
            for _ in range(5):  # far past the burst, but spread out
                await sup.ensure_replica(0)
                # Age every recorded respawn out of the 30s window, as
                # if the next crash came much later.
                times = sup._respawn_times[0]
                times[:] = [t - 31.0 for t in times]
            assert sup.unhealthy is None

        asyncio.run(scenario())

    def test_burst_validation(self, tmp_path):
        with pytest.raises(CapacityError):
            ReplicaSupervisor(10, 1, workdir=tmp_path, max_respawn_burst=0)


# ----------------------------------------------------------------------
# Router parameter validation
# ----------------------------------------------------------------------


class TestRouterParams:
    ENDPOINTS = [("127.0.0.1", 1)]

    def test_replica_timeout_must_be_positive(self):
        with pytest.raises(CapacityError):
            ClusterRouter(10, self.ENDPOINTS, replica_timeout=0)
        with pytest.raises(CapacityError):
            ClusterRouter(10, self.ENDPOINTS, replica_timeout=-1.0)

    def test_breaker_cooldown_must_be_nonnegative(self):
        with pytest.raises(CapacityError):
            ClusterRouter(10, self.ENDPOINTS, breaker_cooldown=-0.1)

    def test_valid_params_construct(self, tmp_path):
        router = ClusterRouter(
            10,
            self.ENDPOINTS,
            journal_dir=tmp_path / "wal",
            strict=True,
            replica_timeout=0.5,
            breaker_cooldown=0.0,
            degraded_reads=True,
        )
        info = router.describe_server()
        assert info["strict"] is True
        assert info["replica_timeout"] == 0.5
        assert info["degraded_reads"] is True
