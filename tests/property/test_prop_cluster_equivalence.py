"""Property: the cluster is indistinguishable from one facade — even
through replica crashes.

Random event streams are pushed through an in-process
:class:`~repro.cluster.router.ClusterRouter` fronting in-process
replica servers, with hypothesis choosing where (and whether) replicas
are hard-killed mid-stream — connections aborted, flusher cancelled,
state dropped, exactly what SIGKILL leaves behind.  A duck-typed
supervisor respawns empty replicas; recovery is the router's
snapshot-restore + seq-replay.  The reference is a directly driven
facade fed the same wire batches in ack-``seq`` order: accepted and
rejected batches must match (same error types, same ``applied``
counts), the assembled cluster checkpoint must restore to the same
dense frequency array bit for bit, and the merged dashboard must agree
(tie-arbitrary kinds compared by frequency).

A second property drops the tie allowance: without crashes, the
router, a directly driven ``ShardedProfiler`` and the sharded facade
over the same partition must return *equal* values for every kind,
tie examples included — all three merge through
:mod:`repro.engine.merge`.

This is the acceptance property of the replicated tier: zero
acknowledged-event loss, no double counts, whatever dies.
"""

import asyncio

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.api import Profiler, Query
from repro.cluster import ClusterRouter
from repro.engine.sharding import ShardedProfiler
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
    Query.kth_most_frequent(2),
    Query.heavy_hitters(0.25),
    Query.quantile(0.99),
)


async def drive_cluster(m, n_parts, batches, crashes, snapshot_every):
    """Push ``batches`` through a router, crashing replicas where
    ``crashes`` says; return per-batch outcomes, the final cluster view
    and how many partition snapshots the router took."""
    supervisor = await InProcessSupervisor(m, n_parts).start()
    router = ClusterRouter(
        m,
        supervisor=supervisor,
        snapshot_every=snapshot_every,
        port=0,
        batch_max=4,
    )
    await router.start()
    client = await AsyncProfileClient.connect(router.host, router.port)
    try:
        outcomes = []
        for i, batch in enumerate(batches):
            if i in crashes:
                await supervisor.crash(crashes[i])
            try:
                # Awaited one at a time: ack order == issue order, so
                # the replay reference is simply outcome order.
                ack = await client.ingest(batch)
            except Exception as exc:  # noqa: BLE001 - compared by type
                outcomes.append((batch, None, type(exc)))
            else:
                outcomes.append((batch, ack, None))
        state = await client.checkpoint()
        answers = await client.evaluate(*DASHBOARD)
        return outcomes, state, answers, router.cluster_stats["snapshots"]
    finally:
        await client.aclose()
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
            # Tie-arbitrary example: compare by (frequency, count) and
            # check the named object really has that frequency.
            assert (value.frequency, value.count) == (
                ref_value.frequency,
                ref_value.count,
            ), query
            assert reference.frequency(value.example) == value.frequency
        elif query.kind in ("top_k", "heavy_hitters"):
            assert [e.frequency for e in value] == [
                e.frequency for e in ref_value
            ], query
            for entry in value:
                assert reference.frequency(entry.obj) == entry.frequency
            if query.kind == "heavy_hitters":  # the set is tie-free
                assert sorted(e.obj for e in value) == sorted(
                    e.obj for e in ref_value
                ), query
        elif query.kind == "kth_most_frequent":
            assert value.frequency == ref_value.frequency, query
            assert reference.frequency(value.obj) == value.frequency
        else:
            assert value == ref_value, query


def check_through_crashes(
    capacity, n_parts, snapshot_every, batches, crashes
):
    """Drive one scenario and hold it to the reference; returns the
    number of snapshots the router took."""
    outcomes, state, answers, snapshots = asyncio.run(
        drive_cluster(capacity, n_parts, batches, crashes, snapshot_every)
    )
    reference = replay_reference(capacity, outcomes)
    try:
        # Bit-identical state, via the assembled sharded checkpoint.
        restored = Profiler.from_state(state)
        try:
            assert restored.frequencies() == reference.frequencies()
        finally:
            restored.close()
        assert_dashboard_matches(answers, reference)
    finally:
        reference.close()
    return snapshots


@settings(max_examples=800, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=14),
    n_parts=st.integers(min_value=1, max_value=3),
    snapshot_every=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_cluster_bit_identical_through_crashes(
    capacity, n_parts, snapshot_every, data
):
    n_parts = min(n_parts, capacity)
    # Out-of-range ids included: the router must reject them whole,
    # before any replica sees a byte.
    keys = st.integers(min_value=-2, max_value=capacity + 2)
    pair = st.tuples(keys, st.integers(min_value=-2, max_value=3))
    batches = data.draw(
        st.lists(
            st.lists(pair, min_size=1, max_size=6),
            min_size=1,
            max_size=12,
        )
    )
    # Up to two crash points: before batch i, kill replica p.
    crashes = dict(
        data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(batches) - 1),
                    st.integers(min_value=0, max_value=n_parts - 1),
                ),
                max_size=2,
            )
        )
    )
    snapshots = check_through_crashes(
        capacity, n_parts, snapshot_every, batches, crashes
    )
    event("snapshot taken" if snapshots else "no snapshot")


#: Explicit examples that snapshot.  A partition snapshots only once
#: its journal holds its capacity in events, which short random
#: streams over wide partitions seldom reach; these pin the snapshot +
#: crash + restore + replay path down on every run.
FULL4 = [(0, 1), (1, 1), (2, 1), (3, 1)]


@pytest.mark.parametrize(
    "capacity, n_parts, snapshot_every, batches, crashes",
    [
        pytest.param(4, 2, 1, [FULL4] * 5, {2: 0, 3: 1}, id="every-flush"),
        pytest.param(
            6,
            3,
            2,
            [
                [(0, 2), (3, 1)],
                [(1, 1), (4, -1)],
                [(2, 3), (5, 1), (7, 1)],
                [(0, -1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)],
                [(0, 1), (3, -2), (6, 1)],
                [(1, 2), (2, -1), (5, 2)],
            ],
            {4: 1, 5: 0},
            id="rejections-between",
        ),
        pytest.param(
            14,
            1,
            5,
            [[((3 * i + j) % 14, 1 + j % 2) for j in range(6)]
             for i in range(12)],
            {7: 0, 10: 0},
            id="one-wide-partition",
        ),
    ],
)
def test_cluster_bit_identical_through_snapshots(
    capacity, n_parts, snapshot_every, batches, crashes
):
    assert check_through_crashes(
        capacity, n_parts, snapshot_every, batches, crashes
    ) >= 1


def every_kind(m):
    """Every query kind, with each k-th rank and several cuts."""
    return DASHBOARD + (
        Query.quantile(0.0),
        Query.quantile(1.0),
        Query.top_k(m),
        Query.support(0),
        Query.heavy_hitters(0.1),
        Query.heavy_hitters(1.0),
    ) + tuple(Query.kth_most_frequent(k) for k in range(1, m + 1))


async def drive_router(m, n_parts, batches, plan):
    """Push ``batches`` through a crash-free router; return each
    batch's ack (or error type) and the answers to ``plan``.

    Replicas take the JSON codec, so each partition core applies its
    keys in first-seen order, as ``ShardedProfiler.apply`` does.  (The
    binary codec's vectorized apply places equal-frequency objects in
    key order instead: a difference of ingest layout, not of merge.)
    """
    supervisor = await InProcessSupervisor(m, n_parts).start()
    router = ClusterRouter(
        m, supervisor=supervisor, replica_codec="json", port=0
    )
    await router.start()
    client = await AsyncProfileClient.connect(router.host, router.port)
    try:
        outcomes = []
        for batch in batches:
            try:
                outcomes.append(await client.ingest(batch))
            except Exception as exc:  # noqa: BLE001 - compared by type
                outcomes.append(type(exc))
        return outcomes, (await client.evaluate(*plan)).values
    finally:
        await client.aclose()
        await router.stop()
        await supervisor.stop()


def sharded_answer(engine, query):
    """One query against a ``ShardedProfiler``'s own methods."""
    if query.kind in ("total", "active_count"):
        return getattr(engine, query.kind)
    if query.kind == "median":
        return engine.median_frequency()
    return getattr(engine, query.kind)(*query.args)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=14),
    n_parts=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_router_engine_and_facade_agree_exactly(capacity, n_parts, data):
    n_parts = min(n_parts, capacity)
    keys = st.integers(min_value=-1, max_value=capacity)
    pair = st.tuples(keys, st.integers(min_value=-2, max_value=3))
    batches = data.draw(
        st.lists(
            st.lists(pair, min_size=1, max_size=6), min_size=1, max_size=10
        )
    )
    plan = every_kind(capacity)
    outcomes, routed = asyncio.run(
        drive_router(capacity, n_parts, batches, plan)
    )
    engine = ShardedProfiler(capacity, n_shards=n_parts, core="flat")
    facade = Profiler.open(capacity, backend="sharded", shards=n_parts)
    try:
        for batch, outcome in zip(batches, outcomes):
            for target in (engine.apply, facade.ingest):
                try:
                    applied = target(batch)
                except Exception as exc:  # noqa: BLE001 - by type
                    assert type(exc) is outcome, batch
                else:
                    assert applied == outcome, batch
        direct = [sharded_answer(engine, q) for q in plan]
        fused = list(facade.evaluate(*plan).values)
    finally:
        facade.close()
    for query, a, b, c in zip(plan, routed, direct, fused):
        assert a == b == c, (query, a, b, c)
