"""Property tests: batch ingestion is observationally equivalent to a
single sequential S-Profile.

The contract under test (the engine's whole correctness story):

- ``add_many`` / ``remove_many`` / ``apply`` produce the same frequency
  array — and therefore the same answer to every query — as the
  equivalent per-event loop, on any stream, regardless of which
  internal strategy (per-key climb or wholesale rebuild) they pick;
- on both ``FlatProfile`` engines, every batch entry point
  (``add_many`` of a list or an ndarray, ``remove_many``, ``apply`` of
  pairs or a dict, ``apply_arrays``) lands a batch as a model of it
  does: same frequencies, counters, return value and exception type,
  range checked before underflow;
- flat cores over the residue classes ``x % P`` (the cluster's
  partitions), merged by :mod:`repro.engine.merge`, answer every query
  identically to one profile fed the same events, for any ``P``;
- both hold on adversarial streams, not just random ones (see also
  ``tests/integration/test_engine_equivalence.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.flat as core_flat
from repro.api import Profiler
from repro.cluster import partition_capacity
from repro.core.flat import FlatProfile
from repro.core.profile import SProfile
from repro.core.validation import audit_profile
from repro.engine.merge import (
    count_at,
    extreme_frequency,
    heavy_cut,
    kth_holder,
    median_frequency,
    merge_extremes,
    merge_histograms,
    merge_top,
)
from repro.errors import CapacityError, FrequencyUnderflowError

# Capacities of 1-60 against batches of up to 200 events straddle each
# core's climb/rebuild rule (distinct * divisor >= m, with divisor 2 for
# SProfile), so every strategy mix gets exercised.
cases = st.tuples(
    st.integers(min_value=1, max_value=60),  # capacity
    st.lists(  # (raw object, is_add) events
        st.tuples(
            st.integers(min_value=0, max_value=10 ** 9), st.booleans()
        ),
        max_size=200,
    ),
    st.integers(min_value=1, max_value=8),  # batch cut size / parts
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
def test_partitioned_cores_merge_like_single_profile(case):
    capacity, raw, n_parts = case
    events = _events(capacity, raw)
    single = SProfile(capacity)
    # Partition p holds global id x under local id x // n_parts; with
    # more parts than objects the surplus partitions are empty.
    parts = {
        p: FlatProfile(partition_capacity(capacity, p, n_parts))
        for p in range(min(n_parts, capacity))
    }
    # Feed half per-event, half as one batch: both routes must agree.
    half = len(events) // 2
    for x, is_add in events[:half]:
        single.update(x, is_add)
        parts[x % n_parts].update(x // n_parts, is_add)
    tail = events[half:]
    single.apply([(x, 1 if a else -1) for x, a in tail])
    for p, part in parts.items():
        part.apply(
            [(x // n_parts, 1 if a else -1) for x, a in tail
             if x % n_parts == p]
        )

    def answers(query, *args):
        return [(p, getattr(part, query)(*args))
                for p, part in parts.items()]

    freqs = single.frequencies()
    sorted_freqs = sorted(freqs)
    m = capacity
    for p, part in parts.items():
        audit_profile(part)
        assert part.frequencies() == freqs[p::n_parts]
    assert sum(part.total for part in parts.values()) == single.total
    hists = answers("histogram")
    assert merge_histograms(hists) == single.histogram()
    assert extreme_frequency(answers("max_frequency"), desc=True) == max(
        freqs
    )
    assert extreme_frequency(answers("min_frequency"), desc=False) == min(
        freqs
    )
    assert median_frequency(merge_histograms(hists)) == sorted_freqs[
        (m - 1) // 2
    ]
    for query, desc, best in (("mode", True, max), ("least", False, min)):
        result = merge_extremes(answers(query), n_parts, desc=desc)
        assert result.frequency == best(freqs)
        assert result.count == freqs.count(best(freqs))
        assert freqs[result.example] == best(freqs)

    top = merge_top(answers("top_k", m), n_parts, m)
    assert [e.frequency for e in top] == sorted_freqs[::-1]
    assert sorted(e.obj for e in top) == list(range(m))
    for f in set(freqs):
        assert count_at(merge_histograms(hists), f) == freqs.count(f)
    for k in range(1, m + 1):
        f, p, local_rank = kth_holder(hists, k)
        entry = parts[p].kth_most_frequent(local_rank)
        assert f == entry.frequency == sorted_freqs[m - k]
        assert freqs[entry.obj * n_parts + p] == f
    for phi in (0.1, 0.3, 0.5):
        cut = heavy_cut(hists, single.total, phi)
        hitters = merge_top(
            [(p, parts[p].top_k(count)) for p, count in cut],
            n_parts,
            sum(count for _, count in cut),
        )
        assert sorted(hitters) == sorted(single.heavy_hitters(phi))


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


# ----------------------------------------------------------------------
# FlatProfile: every batch entry point, both engines
# ----------------------------------------------------------------------

ENGINE_DIVISORS = {
    "list": core_flat.LIST_REBUILD_DIVISOR,
    "array": core_flat.ARRAY_REBUILD_DIVISOR,
}


@st.composite
def flat_cases(draw, divisor):
    """``(capacity, strict, batches)``: each batch is a list of unit
    events ``(key, is_add)``.  Keys come from a pool of up to 16 ids
    and capacities reach 16 rebuild points, so a batch's distinct keys
    land on either side of ``distinct * divisor >= m``.  A batch may
    carry an out-of-range key, plain or netting to zero."""
    m = draw(st.integers(min_value=1, max_value=16 * divisor))
    pool = draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1),
            min_size=1,
            max_size=16,
        )
    )
    strict = draw(st.booleans())
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        events = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(pool),
                    st.sampled_from([True, True, False]),
                ),
                max_size=40,
            )
        )
        bad = draw(st.sampled_from([None, None, None, "plain", "zero"]))
        if bad is not None:
            key = draw(st.sampled_from([-1, m, m + 3]))
            extra = [(key, True)] if bad == "plain" else [
                (key, True), (key, False),
            ]
            at = draw(st.integers(min_value=0, max_value=len(events)))
            events[at:at] = extra
        batches.append(events)
    return m, strict, batches


class _Model:
    """Frequencies and counters of a profile that lands each batch
    atomically: range first, then strict underflow, then the net."""

    def __init__(self, m: int, strict: bool) -> None:
        self.m = m
        self.strict = strict
        self.freqs = [0] * m
        self.n_adds = 0
        self.n_removes = 0

    def land(self, net: dict):
        """The outcome of one net batch: its event count or the type
        of the exception it raises."""
        if any(not 0 <= x < self.m for x in net):
            return CapacityError
        if self.strict and any(self.freqs[x] + d < 0 for x, d in net.items()):
            return FrequencyUnderflowError
        for x, d in net.items():
            self.freqs[x] += d
            if d > 0:
                self.n_adds += d
            else:
                self.n_removes -= d
        return sum(map(abs, net.values()))


def _net(events) -> dict:
    net: dict = {}
    for x, is_add in events:
        net[x] = net.get(x, 0) + (1 if is_add else -1)
    return net


def _counts(keys) -> dict:
    net: dict = {}
    for x in keys:
        net[x] = net.get(x, 0) + 1
    return net


def _outcome(call):
    try:
        return call()
    except (CapacityError, FrequencyUnderflowError) as exc:
        return type(exc)


def _many(profile, events, as_array):
    """``add_many`` of the batch's adds, then ``remove_many`` of its
    removes: two batches, each landed atomically."""
    adds = [x for x, is_add in events if is_add]
    removes = [x for x, is_add in events if not is_add]
    if as_array:
        adds = np.array(adds, dtype=np.int64)
        removes = np.array(removes, dtype=np.int64)
    return (
        _outcome(lambda: profile.add_many(adds)),
        _outcome(lambda: profile.remove_many(removes)),
    )


def _arrays(profile, events):
    net = _net(events)
    keys = np.array(sorted(net), dtype=np.int64)
    sums = np.array([net[x] for x in sorted(net)], dtype=np.int64)
    return _outcome(lambda: profile.apply_arrays(keys, sums))


#: Entry point -> (how it lands one batch, whether it nets the whole
#: batch at once or as add_many-then-remove_many).
ENTRY_POINTS = {
    "add_many list": (lambda p, ev: _many(p, ev, False), False),
    "add_many ndarray": (lambda p, ev: _many(p, ev, True), False),
    "apply pairs": (
        lambda p, ev: _outcome(
            lambda: p.apply([(x, 1 if a else -1) for x, a in ev])
        ),
        True,
    ),
    "apply dict": (lambda p, ev: _outcome(lambda: p.apply(_net(ev))), True),
    "apply_arrays": (_arrays, True),
}


@pytest.mark.parametrize("engine", sorted(ENGINE_DIVISORS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_flat_entry_points_match_one_model(engine, data):
    m, strict, batches = data.draw(flat_cases(ENGINE_DIVISORS[engine]))
    for name, (land, whole_net) in ENTRY_POINTS.items():
        profile = FlatProfile(
            m, allow_negative=not strict, array_engine=engine == "array"
        )
        model = _Model(m, strict)
        for events in batches:
            if whole_net:
                expected = model.land(_net(events))
            else:
                expected = (
                    model.land(_counts(x for x, a in events if a)),
                    model.land(
                        {x: -c for x, c in _counts(
                            x for x, a in events if not a
                        ).items()}
                    ),
                )
            assert land(profile, events) == expected, (name, events)
        assert profile.frequencies() == model.freqs, name
        assert (profile.n_adds, profile.n_removes) == (
            model.n_adds, model.n_removes,
        ), name
        audit_profile(profile)
