"""Property: seeded fault schedules cannot lose an acked event.

Two hardening properties layered on the equivalence suite's in-process
tier:

1. **Router death with a WAL.**  A seeded :class:`FaultSchedule` of
   crash/delay points (the WAL append/sync path and the router's
   journal/fan-out/ack path) is armed while a pipelined stream runs
   against a router with ``journal_dir`` set.  Wherever the schedule
   kills the router, a cold one boots on the same directory and must
   recover to *exactly* a directly driven facade fed some send-order
   prefix that contains every acked batch — acked events are durable,
   and the only slack is the in-flight suffix whose acks never reached
   the client.

2. **Strict 2PC all-or-nothing.**  With ``strict=True``, replica
   crashes are scheduled *between* the two phases (at the
   ``router.prepare`` / ``router.commit`` points via a callable that
   SIGKILL-alikes a replica).  Every batch must either apply fully
   (matching the strict facade) or fail typed having applied nothing —
   never a partial cross-partition write.
"""

import asyncio
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.api import Profiler
from repro.cluster import ClusterRouter
from repro.server import AsyncProfileClient
from repro.testing.faults import FaultSchedule, arm, disarm
from repro.testing.replicas import InProcessSupervisor

from test_prop_cluster_equivalence import (
    DASHBOARD,
    FULL4,
    assert_dashboard_matches,
)

#: The points a seeded schedule may kill the router at — everywhere
#: along the accept path: before/after the WAL write, before the sync,
#: after it, around fan-out and around the acks.
CRASH_POINTS = (
    "router.flush",
    "router.journal",
    "router.fanout",
    "router.acks",
    "wal.append",
    "wal.sync",
    "wal.synced",
)


async def drive_with_router_crashes(
    m, n_parts, batches, schedule, wal_dir, snapshot_every
):
    """Pipeline ``batches`` through a WAL-backed router under an armed
    crash schedule; if the router dies, cold-boot a new one on the same
    directory.  Returns (crashed, statuses, recovered frequencies,
    answers, snapshots taken by both routers)."""
    supervisor = await InProcessSupervisor(m, n_parts).start()
    router = ClusterRouter(
        m,
        supervisor=supervisor,
        snapshot_every=snapshot_every,
        journal_dir=wal_dir,
        port=0,
        batch_max=4,
    )
    await router.start()
    client = await AsyncProfileClient.connect(router.host, router.port)
    arm(schedule)
    try:
        # Pipelined on one ordered connection: send everything first,
        # then gather — acks (and rejections) come back in send order,
        # so whatever resolved cleanly is a prefix.
        futures = []
        for batch in batches:
            futures.append(await client.ingest(batch, wait=False))
        results = await asyncio.gather(*futures, return_exceptions=True)
    finally:
        disarm()

    statuses = []  # ("applied", n) | ("rejected", exc) | ("unknown",)
    for result in results:
        if isinstance(result, BaseException):
            if isinstance(result, ConnectionError):
                # The crash ate the ack: applied-and-journaled or
                # never-seen, the property allows either.
                statuses.append(("unknown",))
            else:
                statuses.append(("rejected", result))
        else:
            # wait=False futures resolve to the raw response frame.
            applied = result["applied"] if isinstance(result, dict) else result
            statuses.append(("applied", applied))

    crashed = router.crashed
    client.abort()
    if not crashed:
        await router.stop()

    # Cold boot on the same WAL directory (no faults armed: recovery
    # itself is exercised by every crashing example).
    router2 = ClusterRouter(
        m,
        supervisor=supervisor,
        snapshot_every=snapshot_every,
        journal_dir=wal_dir,
        port=0,
        batch_max=4,
    )
    await router2.start()
    client2 = await AsyncProfileClient.connect(router2.host, router2.port)
    try:
        state = await client2.checkpoint()
        answers = await client2.evaluate(*DASHBOARD)
        snapshots = (
            router.cluster_stats["snapshots"]
            + router2.cluster_stats["snapshots"]
        )
    finally:
        await client2.aclose()
        await router2.stop()
        await supervisor.stop()

    restored = Profiler.from_state(state)
    try:
        frequencies = restored.frequencies()
    finally:
        restored.close()
    return crashed, statuses, frequencies, answers, snapshots


def candidate_reference(m, batches, statuses, k):
    """The facade fed the first ``k`` batches, honoring known outcomes
    and try-ingesting unknown ones (their only rejection mode, an
    out-of-range id, is state-independent)."""
    reference = Profiler.open(m, backend="flat")
    for batch, status in zip(batches[:k], statuses[:k]):
        if status[0] == "applied":
            assert reference.ingest(batch) == status[1]
        else:
            try:
                reference.ingest(batch)
            except Exception:  # noqa: BLE001 - must mirror a rejection
                pass
            else:
                if status[0] == "rejected":
                    reference.close()
                    raise AssertionError(
                        f"cluster rejected {batch} with "
                        f"{type(status[1]).__name__} but the facade "
                        f"accepted it"
                    )
    return reference


@settings(max_examples=10, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=14),
    n_parts=st.integers(min_value=1, max_value=3),
    snapshot_every=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_router_crash_schedule_loses_no_acked_event(
    capacity, n_parts, snapshot_every, seed, data
):
    n_parts = min(n_parts, capacity)
    keys = st.integers(min_value=-2, max_value=capacity + 2)
    pair = st.tuples(keys, st.integers(min_value=-2, max_value=3))
    batches = data.draw(
        st.lists(
            st.lists(pair, min_size=1, max_size=6),
            min_size=1,
            max_size=12,
        )
    )
    schedule = FaultSchedule.random(
        seed,
        CRASH_POINTS,
        n_faults=data.draw(st.integers(min_value=1, max_value=3)),
        actions=("crash", "crash", 0.001),
        max_occurrence=8,
    )
    snapshots = check_router_crashes(
        capacity, n_parts, snapshot_every, batches, schedule
    )
    event("snapshot taken" if snapshots else "no snapshot")


def check_router_crashes(
    capacity, n_parts, snapshot_every, batches, schedule
):
    """Run one crash schedule and hold the recovered state to some
    send-order prefix containing every acked batch; returns the
    number of snapshots taken."""
    with tempfile.TemporaryDirectory(prefix="prop-wal-") as tmp:
        crashed, statuses, frequencies, answers, snapshots = asyncio.run(
            drive_with_router_crashes(
                capacity,
                n_parts,
                batches,
                schedule,
                Path(tmp) / "wal",
                snapshot_every,
            )
        )

    # Acks are pipeline-ordered: everything before the first unknown
    # has a definite outcome and MUST be in the recovered state.
    acked = len(statuses)
    for i, status in enumerate(statuses):
        if status[0] == "unknown":
            acked = i
            break
    if not crashed:
        assert acked == len(batches), statuses

    for k in range(acked, len(batches) + 1):
        reference = candidate_reference(capacity, batches, statuses, k)
        try:
            if reference.frequencies() == frequencies:
                assert_dashboard_matches(answers, reference)
                return snapshots
        finally:
            reference.close()
    raise AssertionError(
        f"recovered state matches no send-order prefix >= the acked "
        f"count {acked} (crashed={crashed}, statuses={statuses})"
    )


#: Explicit examples that snapshot before and after the crash (random
#: streams seldom fill a partition's capacity in journalled events,
#: which the snapshot rule requires): cold boot then restores from
#: persisted snapshots plus the WAL behind them.


@pytest.mark.parametrize(
    "capacity, n_parts, snapshot_every, batches, triggers",
    [
        pytest.param(
            4, 2, 1, [FULL4] * 8, [("router.acks", 4, "crash")],
            id="crash-before-ack",
        ),
        pytest.param(
            6,
            2,
            2,
            [[(i % 6, 1), ((i + 1) % 6, 2), ((i + 2) % 6, -1), (9, 1)]
             if i % 4 == 3 else
             [(i % 6, 1), ((i + 1) % 6, 2), ((i + 2) % 6, 1)]
             for i in range(10)],
            [("wal.sync", 6, "crash"), ("router.fanout", 2, 0.001)],
            id="crash-in-sync",
        ),
        pytest.param(
            4, 2, 1, [FULL4] * 6, [("wal.synced", 3, "crash")],
            id="crash-after-sync",
        ),
    ],
)
def test_router_crash_after_snapshots_loses_no_acked_event(
    capacity, n_parts, snapshot_every, batches, triggers
):
    schedule = FaultSchedule(triggers)
    snapshots = check_router_crashes(
        capacity, n_parts, snapshot_every, batches, schedule
    )
    assert snapshots >= 1
    assert not schedule.unfired()


def test_crash_between_partition_appends_leaves_no_half_batch():
    """Death after partition 0's WAL record of a wire batch but before
    partition 1's: the unsynced half must not survive into recovery
    (found by the property above; the WAL now writes a flush at its
    fsync, whole)."""
    schedule = FaultSchedule([("wal.append", 3, "crash")])
    check_router_crashes(
        2, 2, 1, [[(0, 0), (1, 0)], [(0, 1), (1, 1)]], schedule
    )
    assert not schedule.unfired()


# ----------------------------------------------------------------------
# Strict 2PC under replica crashes between the phases
# ----------------------------------------------------------------------


async def drive_strict_with_replica_crashes(
    m, n_parts, batches, triggers, snapshot_every
):
    """Sequentially ingest strict batches; ``triggers`` schedules
    SIGKILL-alike replica crashes at 2PC phase boundaries."""
    supervisor = await InProcessSupervisor(m, n_parts).start()
    schedule = FaultSchedule()
    for point, occurrence, p in triggers:
        # Captured by default-arg on purpose; the coroutine is awaited
        # by the async fault point.
        schedule.add(
            point, occurrence, lambda p=p: supervisor.crash(p)
        )
    router = ClusterRouter(
        m,
        supervisor=supervisor,
        snapshot_every=snapshot_every,
        strict=True,
        port=0,
        batch_max=4,
    )
    await router.start()
    client = await AsyncProfileClient.connect(router.host, router.port)
    arm(schedule)
    try:
        outcomes = []
        for batch in batches:
            try:
                ack = await client.ingest(batch)
            except Exception as exc:  # noqa: BLE001 - compared by type
                outcomes.append((batch, None, exc))
            else:
                outcomes.append((batch, ack, None))
    finally:
        disarm()
    try:
        state = await client.checkpoint()
        answers = await client.evaluate(*DASHBOARD)
        stats = dict(router.cluster_stats)
    finally:
        await client.aclose()
        await router.stop()
        await supervisor.stop()
    return outcomes, state, answers, stats


@settings(max_examples=800, deadline=None)
@given(
    capacity=st.integers(min_value=4, max_value=14),
    n_parts=st.integers(min_value=2, max_value=3),
    snapshot_every=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_strict_two_phase_all_or_nothing_under_replica_crashes(
    capacity, n_parts, snapshot_every, data
):
    n_parts = min(n_parts, capacity)
    keys = st.integers(min_value=0, max_value=capacity - 1)
    pair = st.tuples(keys, st.integers(min_value=-2, max_value=3))
    batches = data.draw(
        st.lists(
            st.lists(pair, min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    # Guarantee cross-partition transactions: every partition in one
    # batch, up front.
    batches.insert(0, [(p, +1) for p in range(n_parts)])
    triggers = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(("router.prepare", "router.commit")),
                st.integers(min_value=0, max_value=len(batches) - 1),
                st.integers(min_value=0, max_value=n_parts - 1),
            ),
            min_size=1,
            max_size=2,
            unique_by=lambda t: (t[0], t[1]),
        )
    )

    stats = check_strict(capacity, n_parts, snapshot_every, batches, triggers)
    event("snapshot taken" if stats["snapshots"] else "no snapshot")


def check_strict(capacity, n_parts, snapshot_every, batches, triggers):
    """Run one strict scenario and hold every batch to all-or-nothing;
    returns the router's cluster stats."""
    outcomes, state, answers, stats = asyncio.run(
        drive_strict_with_replica_crashes(
            capacity, n_parts, batches, triggers, snapshot_every
        )
    )

    # All-or-nothing: replay exactly the applied batches on a strict
    # facade.  Typed engine rejections must reject there too;
    # connection-shaped failures mean the transaction aborted whole.
    reference = Profiler.open(capacity, backend="flat", strict=True)
    try:
        for batch, applied, error in outcomes:
            if error is None:
                assert reference.ingest(batch) == applied
            elif isinstance(error, ConnectionError):
                continue  # aborted whole; nothing on any partition
            else:
                try:
                    reference.ingest(batch)
                except type(error):
                    pass
                else:
                    raise AssertionError(
                        f"cluster rejected {batch} with "
                        f"{type(error).__name__} but the strict facade "
                        f"accepted it"
                    )
        restored = Profiler.from_state(state)
        try:
            assert restored.frequencies() == reference.frequencies()
        finally:
            restored.close()
        assert_dashboard_matches(answers, reference)
    finally:
        reference.close()
    assert stats["strict_commits"] + stats["strict_aborts"] >= 1
    return stats


@pytest.mark.parametrize(
    "capacity, n_parts, snapshot_every, batches, triggers",
    [
        pytest.param(
            4,
            2,
            1,
            [FULL4, FULL4, [(0, -5), (1, 1)], FULL4, FULL4, FULL4],
            [("router.commit", 3, 0), ("router.prepare", 4, 1)],
            id="crashes-between-phases",
        ),
        pytest.param(
            6,
            3,
            2,
            [[(p, 1) for p in range(6)]] * 3
            + [[(0, -1), (4, 2)], [(5, -9)], [(p, 2) for p in range(6)]],
            [("router.prepare", 2, 2), ("router.commit", 4, 0)],
            id="three-partitions",
        ),
    ],
)
def test_strict_all_or_nothing_after_snapshots(
    capacity, n_parts, snapshot_every, batches, triggers
):
    stats = check_strict(capacity, n_parts, snapshot_every, batches, triggers)
    assert stats["snapshots"] >= 1
    assert stats["recoveries"] >= 1
