"""Property tests: batch ingestion and sharding are observationally
equivalent to a single sequential S-Profile.

The contract under test (the engine's whole correctness story):

- ``add_many`` / ``remove_many`` / ``apply`` produce the same frequency
  array — and therefore the same answer to every query — as the
  equivalent per-event loop, on any stream, regardless of which
  internal strategy (per-key climb or wholesale rebuild) they pick;
- ``ShardedProfiler`` answers every query identically to an unsharded
  profile fed the same events, for any shard count;
- both hold on adversarial streams, not just random ones (see also
  ``tests/integration/test_engine_equivalence.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Profiler
from repro.core.profile import SProfile
from repro.core.validation import audit_profile
from repro.engine.sharding import ShardedProfiler

# Capacities straddle the climb/rebuild threshold (distinct*2 >= m) so
# every strategy mix gets exercised.
cases = st.tuples(
    st.integers(min_value=1, max_value=60),  # capacity
    st.lists(  # (raw object, is_add) events
        st.tuples(
            st.integers(min_value=0, max_value=10 ** 9), st.booleans()
        ),
        max_size=200,
    ),
    st.integers(min_value=1, max_value=8),  # batch cut size / shards
)


def _events(capacity, raw):
    return [(obj % capacity, is_add) for obj, is_add in raw]


@given(cases)
@settings(max_examples=120, deadline=None)
def test_batched_ingestion_matches_sequential(case):
    capacity, raw, cut = case
    events = _events(capacity, raw)
    sequential = SProfile(capacity)
    for x, is_add in events:
        sequential.update(x, is_add)

    batched = SProfile(capacity)
    for start in range(0, len(events), cut):
        chunk = events[start : start + cut]
        batched.add_many([x for x, a in chunk if a])
        batched.remove_many([x for x, a in chunk if not a])

    audit_profile(batched)
    assert batched.frequencies() == sequential.frequencies()
    assert batched.total == sequential.total
    assert batched.n_events == sequential.n_events
    assert batched.histogram() == sequential.histogram()


@given(cases)
@settings(max_examples=120, deadline=None)
def test_apply_matches_sequential(case):
    capacity, raw, cut = case
    events = _events(capacity, raw)
    sequential = SProfile(capacity, track_freq_index=True)
    for x, is_add in events:
        sequential.update(x, is_add)

    applied = SProfile(capacity, track_freq_index=True)
    for start in range(0, len(events), cut):
        applied.apply(
            [(x, 1 if a else -1) for x, a in events[start : start + cut]]
        )

    audit_profile(applied)
    assert applied.frequencies() == sequential.frequencies()
    assert applied.total == sequential.total
    for f in range(-5, 8):
        assert applied.support(f) == sequential.support(f)


@given(cases)
@settings(max_examples=120, deadline=None)
def test_sharded_matches_single_profile(case):
    capacity, raw, n_shards = case
    events = _events(capacity, raw)
    single = SProfile(capacity)
    sharded = ShardedProfiler(capacity, n_shards=n_shards)
    # Feed half per-event, half as one batch: both routes must agree.
    half = len(events) // 2
    for x, is_add in events[:half]:
        single.update(x, is_add)
        sharded.update(x, is_add)
    tail = events[half:]
    single.apply([(x, 1 if a else -1) for x, a in tail])
    sharded.apply([(x, 1 if a else -1) for x, a in tail])

    sharded.audit()
    freqs = single.frequencies()
    sorted_freqs = sorted(freqs)
    m = capacity
    assert sharded.frequencies() == freqs
    assert sharded.total == single.total
    assert sharded.histogram() == single.histogram()
    assert sharded.max_frequency() == max(freqs)
    assert sharded.min_frequency() == min(freqs)
    assert sharded.median_frequency() == sorted_freqs[(m - 1) // 2]

    mode = sharded.mode()
    assert mode.frequency == max(freqs)
    assert mode.count == freqs.count(max(freqs))
    assert freqs[mode.example] == max(freqs)
    least = sharded.least()
    assert least.frequency == min(freqs)
    assert least.count == freqs.count(min(freqs))

    top = sharded.top_k(m)
    assert [e.frequency for e in top] == sorted_freqs[::-1]
    assert sorted(e.obj for e in top) == list(range(m))
    for f in set(freqs):
        assert sharded.support(f) == freqs.count(f)
        assert sorted(sharded.objects_with_frequency(f)) == sorted(
            x for x, fr in enumerate(freqs) if fr == f
        )
    for k in range(1, m + 1):
        entry = sharded.kth_most_frequent(k)
        assert entry.frequency == sorted_freqs[m - k]
        assert freqs[entry.obj] == entry.frequency


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]),
            st.booleans(),
        ),
        max_size=120,
    ),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_hashable_universe_batches_match_sequential(events, cut):
    sequential = Profiler.open(keys="hashable")
    for event in events:
        sequential.ingest([event])

    batched = Profiler.open(keys="hashable")
    for start in range(0, len(events), cut):
        chunk = events[start : start + cut]
        batched.ingest([(o, True) for o, a in chunk if a])
        batched.ingest([(o, False) for o, a in chunk if not a])

    for obj in "abcdefg":
        assert batched.frequency(obj) == sequential.frequency(obj)
    assert batched.total == sequential.total
    assert batched.histogram() == sequential.histogram()
    audit_profile(batched.backend)
