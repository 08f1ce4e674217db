"""Property: the server is indistinguishable from a direct facade.

Random event streams are cut into wire batches, spread over several
concurrent pipelining clients and pushed through an in-process
:class:`~repro.server.service.ProfileServer` with a small
``batch_max`` (so flush boundaries land mid-stream constantly).  Every
ingest ack carries ``seq`` — the server's serialization order — so the
reference is exact: a directly-driven facade fed the same wire batches
one ``ingest()`` at a time in seq order must

- accept and reject exactly the same wire batches (same error types,
  same ``applied`` counts: rejections are all-or-nothing per wire
  batch, whatever flush they were coalesced into), and
- end in the same state — compared bit-for-bit via the dense frequency
  array for the exact dense backends (through a server checkpoint
  download, which exercises that path too) and via the full fused
  query surface everywhere.

This is the contract that makes micro-batching an *optimization*
rather than a semantics change.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Profiler, Query
from repro.server import AsyncProfileClient, ProfileServer
from repro.testing import hold_flusher

# Small batch_max, and every batch queued while the flusher is held:
# group commit then splits and merges wire batches from different
# clients at every flush boundary.
SERVER_KNOBS = dict(batch_max=5)

DASHBOARD = (
    Query.mode(),
    Query.least(),
    Query.top_k(3),
    Query.histogram(),
    Query.quantile(0.5),
    Query.support(0),
    Query.total(),
    Query.active_count(),
)


def wire_batches(keys):
    """Lists of wire batches of (key, delta) pairs."""
    pair = st.tuples(keys, st.integers(min_value=-3, max_value=3))
    batch = st.lists(pair, min_size=1, max_size=6)
    return st.lists(batch, min_size=1, max_size=14)


async def drive_server(profiler, batches, n_clients, codecs=None):
    """Push ``batches`` round-robin over ``n_clients`` pipelining
    clients; return per-batch outcomes and the final server view.

    ``codecs`` optionally names each client's wire codec (``"json"``,
    ``"binary"`` or ``"auto"``) — mixed lists exercise JSON and binary
    connections coalescing into the *same* server flushes."""
    async with ProfileServer(profiler, **SERVER_KNOBS) as server:
        clients = [
            await AsyncProfileClient.connect(
                port=server.port,
                codec="json" if codecs is None else codecs[i],
            )
            for i in range(n_clients)
        ]
        futures = []
        async with hold_flusher(server, queued=len(batches)):
            for i, batch in enumerate(batches):
                futures.append(
                    await clients[i % n_clients].ingest(batch, wait=False)
                )
        outcomes = []
        for batch, future in zip(batches, futures):
            try:
                ack = await future
                outcomes.append((ack["seq"], batch, ack["applied"], None))
            except Exception as exc:  # noqa: BLE001 - compared by type
                outcomes.append(
                    (exc.remote_seq, batch, None, type(exc))
                )
        try:
            state = await clients[0].checkpoint()
        except Exception:  # noqa: BLE001 - baselines don't checkpoint
            state = None
        try:
            answers = await clients[0].evaluate(*DASHBOARD)
        except Exception as exc:  # noqa: BLE001 - compared by type
            answers = type(exc)
        for client in clients:
            await client.aclose()
        return outcomes, state, answers


def replay_reference(make_profiler, outcomes):
    """Apply the same wire batches directly, in server seq order."""
    reference = make_profiler()
    for _seq, batch, applied, error_type in sorted(
        outcomes, key=lambda o: o[0]
    ):
        if error_type is None:
            assert reference.ingest(batch) == applied
        else:
            try:
                reference.ingest(batch)
            except error_type:
                pass
            else:
                raise AssertionError(
                    f"server rejected {batch} with {error_type.__name__} "
                    f"but the facade accepted it"
                )
    return reference


def assert_same_answers(server_answers, reference):
    if isinstance(server_answers, type):
        # The server's evaluate raised (e.g. EmptyProfileError on a
        # zero-object universe); the reference must raise identically.
        try:
            reference.evaluate(*DASHBOARD)
        except server_answers:
            return
        raise AssertionError(
            f"server raised {server_answers.__name__} but the facade "
            f"answered"
        )
    expected = reference.evaluate(*DASHBOARD)
    for query, value in server_answers:
        ref_value = expected[query]
        if query.kind in ("mode", "least"):
            assert (value.frequency, value.count) == (
                ref_value.frequency,
                ref_value.count,
            )
        elif query.kind == "top_k":
            assert [e.frequency for e in value] == [
                e.frequency for e in ref_value
            ]
        else:
            assert value == ref_value, query


def check_equivalence(make_profiler, batches, n_clients, codecs=None):
    outcomes, state, answers = asyncio.run(
        drive_server(make_profiler(), batches, n_clients, codecs)
    )
    assert all(seq is not None for seq, *_ in outcomes)
    reference = replay_reference(make_profiler, outcomes)
    assert_same_answers(answers, reference)
    return state, reference


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=12),
    backend=st.sampled_from(["flat", "exact"]),
    strict=st.booleans(),
    n_clients=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_dense_backends_bit_identical(
    capacity, backend, strict, n_clients, data
):
    # Out-of-range ids included: bad-id rejections must also isolate.
    keys = st.integers(min_value=-2, max_value=capacity + 2)
    batches = data.draw(wire_batches(keys))
    def make_profiler():
        return Profiler.open(capacity, backend=backend, strict=strict)

    state, reference = check_equivalence(
        make_profiler, batches, n_clients
    )
    # Bit-identical state, via the wire checkpoint.
    assert Profiler.from_state(state).frequencies() == (
        reference.frequencies()
    )


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from(["interned", "dynamic"]),
    strict=st.booleans(),
    n_clients=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_hashable_backends_equivalent(
    capacity, mode, strict, n_clients, data
):
    # More distinct keys than interned capacity: registration-order
    # capacity overflows must match the reference exactly.
    keys = st.sampled_from(["a", "b", "c", "d", "e", 7])
    batches = data.draw(wire_batches(keys))

    def make_profiler():
        if mode == "interned":
            return Profiler.open(
                capacity, backend="flat", keys="hashable", strict=strict
            )
        return Profiler.open(keys="hashable", strict=strict)

    state, reference = check_equivalence(
        make_profiler, batches, n_clients
    )
    restored = Profiler.from_state(state)
    for key in ("a", "b", "c", "d", "e", 7):
        assert restored.frequency(key) == reference.frequency(key)


@settings(max_examples=10, deadline=None)
@given(
    n_clients=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_sequential_strategy_baseline_equivalent(n_clients, data):
    """Registry baselines take the no-coalescing path; same contract."""
    keys = st.integers(min_value=-1, max_value=8)
    batches = data.draw(wire_batches(keys))

    def make_profiler():
        return Profiler.open(8, backend="bucket")

    check_equivalence(make_profiler, batches, n_clients)


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=12),
    backend=st.sampled_from(["flat", "exact"]),
    strict=st.booleans(),
    codecs=st.lists(
        st.sampled_from(["json", "binary", "auto"]),
        min_size=1,
        max_size=3,
    ),
    data=st.data(),
)
def test_codec_matrix_bit_identical(capacity, backend, strict, codecs, data):
    """The codec is invisible to semantics: any mix of JSON and binary
    connections — pipelining, coalescing into shared flushes, strict
    rejections included — replays in seq order to the same bits as a
    directly driven facade."""
    pytest.importorskip("numpy")
    # Out-of-range ids ride binary frames too: the server, not the
    # codec, must reject them (all-or-nothing, isolated per batch).
    keys = st.integers(min_value=-2, max_value=capacity + 2)
    batches = data.draw(wire_batches(keys))
    def make_profiler():
        return Profiler.open(capacity, backend=backend, strict=strict)

    state, reference = check_equivalence(
        make_profiler, batches, len(codecs), codecs
    )
    # Bit-identical state, via the wire checkpoint.
    assert Profiler.from_state(state).frequencies() == (
        reference.frequencies()
    )
