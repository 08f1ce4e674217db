"""Property: every exact backend answers identically through the facade.

Randomized streams drive ``Profiler.open(backend=b)`` for each
registered exact backend and assert the facade-normalized answers are
*equal* — frequencies, extremes, quantiles (edges included), histogram,
support, and top-k frequency profiles.  The approximate backend is held
to its error bounds instead of equality.

This is the contract the facade sells: pick any backend, get the same
numbers (or explicitly bounded ones).
"""

from hypothesis import given, settings, strategies as st

from repro.api import Profiler, Query
from repro.errors import FrequencyUnderflowError, UnsupportedQueryError

UNIVERSE = 12

#: Exact backends answering the full query surface through the facade.
#: ``flat-array`` is the flat backend on its ``int64`` array storage
#: (``array_engine=True``) — the vectorized batch paths write in place
#: into the buffers, and the same answers must come back.
FULL_SURFACE_BACKENDS = (
    "flat",
    "flat-array",
    "exact",
    "sharded",
    "sprofile-indexed",
    "bucket",
)

#: Exact backends answering quantile-family queries only.
QUANTILE_BACKENDS = ("tree-fenwick", "tree-sortedlist")

events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=UNIVERSE - 1),
        st.integers(min_value=-3, max_value=4),
    ),
    max_size=60,
)

# Split points let the stream arrive as several ingest batches, so
# coalescing boundaries vary too.
batched_events = st.tuples(events, st.integers(min_value=1, max_value=5))


def _open(name, strict=False, shards_for_sharded=3):
    if name == "flat-array":
        return Profiler.open(
            UNIVERSE, backend="flat", array_engine=True, strict=strict
        )
    kwargs = {"shards": shards_for_sharded} if name == "sharded" else {}
    return Profiler.open(UNIVERSE, backend=name, strict=strict, **kwargs)


def _open_all(names):
    return {name: _open(name) for name in names}


def _feed(profilers, stream, n_batches):
    if not stream:
        return
    size = max(1, len(stream) // n_batches)
    for start in range(0, len(stream), size):
        batch = stream[start : start + size]
        for profiler in profilers.values():
            profiler.ingest(batch)


QUANTILE_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@given(batched_events)
@settings(max_examples=60, deadline=None)
def test_full_surface_backends_agree(batched):
    stream, n_batches = batched
    profilers = _open_all(FULL_SURFACE_BACKENDS)
    _feed(profilers, stream, n_batches)

    reference = profilers["bucket"]
    ref_freqs = reference.frequencies()
    ref_hist = reference.histogram()
    for name, profiler in profilers.items():
        assert profiler.frequencies() == ref_freqs, name
        assert profiler.total == reference.total, name
        assert profiler.histogram() == ref_hist, name
        assert profiler.max_frequency() == reference.max_frequency(), name
        assert profiler.min_frequency() == reference.min_frequency(), name
        mode = profiler.mode()
        assert mode.frequency == reference.mode().frequency, name
        assert mode.count == reference.mode().count, name
        assert ref_freqs[mode.example] == mode.frequency, name
        least = profiler.least()
        assert least.frequency == reference.least().frequency, name
        assert least.count == reference.least().count, name
        for q in QUANTILE_GRID:
            assert profiler.quantile(q) == reference.quantile(q), (name, q)
        assert (
            profiler.median_frequency() == reference.median_frequency()
        ), name
        for f in (-1, 0, 1, 2):
            assert profiler.support(f) == reference.support(f), (name, f)
        top = profiler.top_k(5)
        assert [e.frequency for e in top] == [
            e.frequency for e in reference.top_k(5)
        ], name
        assert all(ref_freqs[e.obj] == e.frequency for e in top), name


@given(batched_events)
@settings(max_examples=40, deadline=None)
def test_quantile_backends_agree_on_their_surface(batched):
    stream, n_batches = batched
    profilers = _open_all(("bucket",) + QUANTILE_BACKENDS)
    _feed(profilers, stream, n_batches)
    reference = profilers["bucket"]
    for name in QUANTILE_BACKENDS:
        profiler = profilers[name]
        for q in QUANTILE_GRID:
            assert profiler.quantile(q) == reference.quantile(q), (name, q)
        assert profiler.histogram() == reference.histogram(), name
        assert not profiler.supports("top_k")
        try:
            profiler.top_k(3)
        except UnsupportedQueryError:
            pass
        else:  # pragma: no cover
            raise AssertionError(f"{name} should not answer top_k")


@given(batched_events)
@settings(max_examples=60, deadline=None)
def test_fused_evaluate_agrees_across_backends(batched):
    """The fused plan answers what the standalone calls answer,
    for every backend, on arbitrary streams."""
    stream, n_batches = batched
    profilers = _open_all(FULL_SURFACE_BACKENDS)
    _feed(profilers, stream, n_batches)
    plan = (
        Query.histogram(),
        Query.quantile(0.0),
        Query.quantile(1.0),
        Query.median(),
        Query.support(0),
        Query.total(),
    )
    reference = None
    for name, profiler in profilers.items():
        values = tuple(profiler.evaluate(*plan).values)
        if reference is None:
            reference = values
        else:
            assert values == reference, name


#: Every walk kind, plus point queries, for the hashable-universe
#: comparison below.
FULL_PLAN = (
    Query.mode(),
    Query.least(),
    Query.max_frequency(),
    Query.min_frequency(),
    Query.top_k(UNIVERSE),
    Query.kth_most_frequent(1),
    Query.median(),
    *(Query.quantile(q) for q in QUANTILE_GRID),
    Query.histogram(),
    *(Query.support(f) for f in (-1, 0, 1, 2)),
    Query.heavy_hitters(0.25),
    Query.active_count(),
    Query.total(),
    Query.frequency("k0"),
    Query.frequency("never-seen"),
)


def _tie_free(profiler, query, value):
    """An answer with tie order inside equal frequencies factored out:
    named objects are checked against their own frequency and dropped."""
    if query.kind in ("mode", "least"):
        assert profiler.frequency(value.example) == value.frequency
        return value.frequency, value.count
    if query.kind in ("top_k", "heavy_hitters"):
        assert all(profiler.frequency(e.obj) == e.frequency for e in value)
        return [e.frequency for e in value]
    if query.kind == "kth_most_frequent":
        assert profiler.frequency(value.obj) == value.frequency
        return value.frequency
    return value


@given(batched_events, st.integers(min_value=UNIVERSE, max_value=40))
@settings(max_examples=40, deadline=None)
def test_bounded_and_growable_hashable_universes_agree(batched, bound):
    """A hashable universe answers the same with or without a declared
    capacity: both count registered keys only, whatever phantom slots
    their cores hold (bounded: ``bound - len``; growable: up to the
    last doubling)."""
    stream, n_batches = batched
    named = [(f"k{obj}", delta) for obj, delta in stream]
    universes = {
        "bounded": Profiler.open(bound, backend="flat", keys="hashable"),
        "growable": Profiler.open(keys="hashable"),
        "growable-exact": Profiler.open(keys="hashable", backend="exact"),
    }
    _feed(universes, named, n_batches)
    reference = universes["growable"]
    if len(reference) == 0:
        for profiler in universes.values():
            assert len(profiler) == 0
        return
    expected = [
        _tie_free(reference, q, v)
        for q, v in reference.evaluate(*FULL_PLAN)
    ]
    for name, profiler in universes.items():
        assert len(profiler) == len(reference), name
        answers = [
            _tie_free(profiler, q, v)
            for q, v in profiler.evaluate(*FULL_PLAN)
        ]
        assert answers == expected, name
        # Standalone calls answer as the fused walk does.
        standalone = [
            _tie_free(profiler, q, profiler._dispatch(q)) for q in FULL_PLAN
        ]
        assert standalone == expected, name


@given(batched_events)
@settings(max_examples=30, deadline=None)
def test_strict_mode_rejection_agrees_on_array_engine(batched):
    """Strict-mode batches are all-or-nothing on the array engine: the
    flat backend over ``int64`` buffers accepts/rejects exactly when
    the exact backend does, and a rejected batch leaves both
    completely unchanged."""
    stream, n_batches = batched
    array = _open("flat-array", strict=True)
    exact = _open("exact", strict=True)
    size = max(1, len(stream) // n_batches) if stream else 1
    for start in range(0, len(stream), size):
        batch = stream[start : start + size]
        outcomes = []
        for profiler in (array, exact):
            try:
                profiler.ingest(batch)
                outcomes.append("ok")
            except FrequencyUnderflowError:
                outcomes.append("underflow")
        assert outcomes[0] == outcomes[1], batch
        assert array.frequencies() == exact.frequencies()
    assert array.total == exact.total
    assert array.histogram() == exact.histogram()


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=6),
        ),
        max_size=40,
    )
)
@settings(max_examples=40, deadline=None)
def test_approx_backend_within_bounds(adds):
    """Add-only streams: Count-Min never underestimates and stays
    within its additive bound; SpaceSaving top-k never underestimates
    its monitored counts."""
    exact = Profiler.open(16, backend="exact")
    approx = Profiler.open(backend="approx", counters=8, eps=0.01)
    for obj, count in adds:
        exact.ingest({obj: count})
        approx.ingest({obj: count})
    total = exact.total
    assert approx.total == total
    bound = approx.backend.error_bound()
    for obj in range(16):
        true = exact.frequency(obj)
        estimate = approx.frequency(obj)
        assert estimate >= true
        assert estimate <= true + bound + total / 8
    if total:
        # Every SpaceSaving estimate is exact-or-over, within N/k.
        for entry in approx.top_k(8):
            true = exact.frequency(entry.obj)
            assert true <= entry.frequency <= true + total / 8
