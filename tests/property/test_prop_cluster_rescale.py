"""Property: a live rescale is invisible to the data.

Random event streams are pushed through an in-process
:class:`~repro.cluster.router.ClusterRouter` journaling to a real WAL,
and hypothesis picks a point mid-stream where a second client issues
``rescale(n ± 1)``.  Ingest never pauses: batches keep flowing (and
keep being acked) while the migration snapshots the old tier, replays
into the new one, and double-writes the traffic that arrives during
the handoff.  The reference is a single directly driven facade fed the
same wire batches in ack order — accepted and rejected batches must
match outcome for outcome, the post-cutover checkpoint must restore to
the same dense frequency array bit for bit, and the merged dashboard
must agree.

This is the acceptance property of live rebalancing: growing or
shrinking the replica set loses nothing, double-counts nothing, and
never stops the stream.
"""

import asyncio
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.api import Profiler, Query
from repro.cluster import ClusterRouter
from repro.server import AsyncProfileClient
from repro.testing.replicas import InProcessSupervisor

DASHBOARD = (
    Query.total(),
    Query.active_count(),
    Query.mode(),
    Query.least(),
    Query.max_frequency(),
    Query.min_frequency(),
    Query.histogram(),
    Query.median(),
    Query.quantile(0.25),
    Query.top_k(3),
    Query.support(1),
)


async def drive_rescaling_cluster(
    m, n_parts, n_new, batches, rescale_at, snapshot_every
):
    """Push ``batches`` through a router, firing ``rescale(n_new)``
    from a second connection before batch ``rescale_at`` lands — and
    never waiting for it; ingest and migration overlap."""
    with tempfile.TemporaryDirectory() as wal_dir:
        supervisor = await InProcessSupervisor(m, n_parts).start()
        router = ClusterRouter(
            m,
            supervisor=supervisor,
            journal_dir=wal_dir,
            snapshot_every=snapshot_every,
            port=0,
            batch_max=4,
        )
        await router.start()
        client = await AsyncProfileClient.connect(router.host, router.port)
        control = await AsyncProfileClient.connect(
            router.host, router.port
        )
        rescale_task = None
        try:
            outcomes = []
            for i, batch in enumerate(batches):
                if i == rescale_at:
                    rescale_task = asyncio.create_task(
                        control.rescale(n_new)
                    )
                try:
                    # Awaited one at a time: ack order == issue order,
                    # so the replay reference is simply outcome order.
                    ack = await client.ingest(batch)
                except Exception as exc:  # noqa: BLE001 - compared by type
                    outcomes.append((batch, None, type(exc)))
                else:
                    outcomes.append((batch, ack, None))
            if rescale_task is None:  # rescale_at == len(batches)
                rescale_task = asyncio.create_task(
                    control.rescale(n_new)
                )
            receipt = await rescale_task
            rescale_task = None
            # The stream keeps flowing after the cutover too.
            for batch in batches[:3]:
                try:
                    ack = await client.ingest(batch)
                except Exception as exc:  # noqa: BLE001
                    outcomes.append((batch, None, type(exc)))
                else:
                    outcomes.append((batch, ack, None))
            state = await client.checkpoint()
            answers = await client.evaluate(*DASHBOARD)
            health = await client.health()
            snapshots = router.cluster_stats["snapshots"]
            return outcomes, state, answers, receipt, health, snapshots
        finally:
            if rescale_task is not None:
                rescale_task.cancel()
            await client.aclose()
            await control.aclose()
            await router.stop()
            await supervisor.stop()


def replay_reference(m, outcomes):
    """One facade fed the accepted batches in ack order."""
    reference = Profiler.open(m, backend="flat")
    for batch, applied, error_type in outcomes:
        if error_type is None:
            assert reference.ingest(batch) == applied
        else:
            try:
                reference.ingest(batch)
            except error_type:
                pass
            else:
                raise AssertionError(
                    f"cluster rejected {batch} with "
                    f"{error_type.__name__} but the facade accepted it"
                )
    return reference


def assert_dashboard_matches(answers, reference):
    expected = reference.evaluate(*DASHBOARD)
    for query, value in answers:
        ref_value = expected[query]
        if query.kind in ("mode", "least"):
            assert (value.frequency, value.count) == (
                ref_value.frequency,
                ref_value.count,
            ), query
            assert reference.frequency(value.example) == value.frequency
        elif query.kind == "top_k":
            assert [e.frequency for e in value] == [
                e.frequency for e in ref_value
            ], query
            for entry in value:
                assert reference.frequency(entry.obj) == entry.frequency
        else:
            assert value == ref_value, query


@settings(max_examples=8, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=14),
    n_parts=st.integers(min_value=1, max_value=3),
    grow=st.booleans(),
    snapshot_every=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_rescale_concurrent_with_ingest_is_bit_identical(
    capacity, n_parts, grow, snapshot_every, data
):
    n_parts = min(n_parts, capacity)
    # N -> N±1, clamped to the legal range; shrinking from 1 grows
    # instead (a same-size "rescale" is rejected by design).
    if grow or n_parts == 1:
        n_new = min(n_parts + 1, capacity)
        if n_new == n_parts:
            n_new = max(n_parts - 1, 1)
    else:
        n_new = n_parts - 1
    if n_new == n_parts:
        return  # capacity == n_parts == 1: nothing to rescale
    keys = st.integers(min_value=-2, max_value=capacity + 2)
    pair = st.tuples(keys, st.integers(min_value=-2, max_value=3))
    batches = data.draw(
        st.lists(
            st.lists(pair, min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        )
    )
    rescale_at = data.draw(
        st.integers(min_value=0, max_value=len(batches))
    )

    snapshots = check_rescale(
        capacity, n_parts, n_new, batches, rescale_at, snapshot_every
    )
    event("snapshot taken" if snapshots else "no snapshot")


def check_rescale(
    capacity, n_parts, n_new, batches, rescale_at, snapshot_every
):
    """Run one rescale scenario against the reference; returns the
    number of snapshots the router took."""
    outcomes, state, answers, receipt, health, snapshots = asyncio.run(
        drive_rescaling_cluster(
            capacity, n_parts, n_new, batches, rescale_at, snapshot_every
        )
    )
    assert receipt["partitions"] == n_new
    assert receipt["generation"] == 1
    assert health["partitions"] == n_new
    assert health["generation"] == 1
    reference = replay_reference(capacity, outcomes)
    try:
        restored = Profiler.from_state(state)
        try:
            assert restored.frequencies() == reference.frequencies()
        finally:
            restored.close()
        assert_dashboard_matches(answers, reference)
    finally:
        reference.close()
    return snapshots


#: Explicit examples that snapshot on both sides of the cutover (the
#: snapshot rule wants a partition's capacity in journalled events,
#: which short random streams seldom reach).
FULL6 = [(k, 1) for k in range(6)]


@pytest.mark.parametrize(
    "capacity, n_parts, n_new, batches, rescale_at, snapshot_every",
    [
        pytest.param(4, 2, 3, [[(k, 1) for k in range(4)]] * 6, 3, 1,
                     id="grow"),
        pytest.param(
            6, 3, 2,
            [FULL6, [(0, 2), (9, 1)], FULL6, [(1, -1), (5, 3)], FULL6],
            2, 2, id="shrink",
        ),
    ],
)
def test_rescale_bit_identical_across_snapshots(
    capacity, n_parts, n_new, batches, rescale_at, snapshot_every
):
    assert check_rescale(
        capacity, n_parts, n_new, batches, rescale_at, snapshot_every
    ) >= 1
