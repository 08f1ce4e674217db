"""Property-based tests: hashable-key universes vs a Counter model.

Both single-core hashable paths run: ``growable`` (no capacity, the
core doubles on demand, from empty) and ``bounded`` (a declared
capacity above the id alphabet, so the core holds phantom slots from
the start).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.api import Profiler
from repro.core.profile import SProfile
from repro.core.validation import audit_profile

# Small id alphabet so collisions (repeat objects) are common.
ids = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", 1, 2, (3, 4)])
events = st.lists(st.tuples(ids, st.booleans()), max_size=250)
universes = st.sampled_from(["growable", "growable-exact", "bounded"])


def _open(universe):
    if universe == "bounded":
        return Profiler.open(16, backend="flat", keys="hashable")
    if universe == "growable-exact":
        return Profiler.open(keys="hashable", backend="exact")
    return Profiler.open(keys="hashable")


def _drive(profiler, event_list):
    model: Counter = Counter()
    for obj, is_add in event_list:
        profiler.ingest([(obj, is_add)])
        model[obj] += 1 if is_add else -1
    return model


@given(events, universes)
@settings(max_examples=100, deadline=None)
def test_hashable_universe_matches_counter_model(event_list, universe):
    profiler = _open(universe)
    model = _drive(profiler, event_list)

    audit_profile(profiler.backend)
    assert len(profiler) == len(model)
    assert profiler.total == sum(model.values())
    for obj, expected in model.items():
        assert profiler.frequency(obj) == expected
    assert profiler.frequency("never-seen-id") == 0

    if model:
        freqs = sorted(model.values())
        assert profiler.mode().frequency == freqs[-1]
        assert profiler.least().frequency == freqs[0]
        assert profiler.median_frequency() == freqs[(len(freqs) - 1) // 2]
        assert profiler.quantile(0.0) == freqs[0]
        assert profiler.quantile(1.0) == freqs[-1]

        histogram = Counter(model.values())
        assert profiler.histogram() == sorted(histogram.items())
        for f in range(-3, 5):
            assert profiler.support(f) == histogram.get(f, 0)
            named = profiler.objects_with_frequency(f)
            assert sorted(map(repr, named)) == sorted(
                repr(obj) for obj, value in model.items() if value == f
            )

        top = profiler.top_k(len(model) + 3)
        assert [entry.frequency for entry in top] == freqs[::-1]
        assert {entry.obj for entry in top} == set(model)

        items = list(profiler.iter_sorted())
        assert [f for __, f in items] == freqs
        assert {obj for obj, __ in items} == set(model)


@given(events, universes)
@settings(max_examples=50, deadline=None)
def test_snapshot_is_logical(event_list, universe):
    profiler = _open(universe)
    model = _drive(profiler, event_list)

    snap = profiler.snapshot()
    assert snap.capacity == len(model)
    assert sorted(snap.frequencies()) == sorted(model.values())
    assert snap.total == sum(model.values())
    # Dense ids in the snapshot translate back through the catalog.
    catalog = profiler.to_state()["catalog"]
    recovered = Counter()
    for dense, freq in enumerate(snap.frequencies()):
        recovered[catalog[dense]] = freq
    assert recovered == model


@given(events, universes)
@settings(max_examples=50, deadline=None)
def test_equivalent_to_dense_profile(event_list, universe):
    """A hashable universe agrees with an SProfile given dense ids."""
    from repro.core.interner import ObjectInterner

    interner = ObjectInterner()
    dense_events = [
        (interner.intern(obj), is_add) for obj, is_add in event_list
    ]
    capacity = len(interner)

    profiler = _open(universe)
    _drive(profiler, event_list)

    if capacity == 0:
        assert len(profiler) == 0
        return

    dense = SProfile(capacity)
    for x, is_add in dense_events:
        dense.update(x, is_add)

    assert profiler.median_frequency() == dense.median_frequency()
    assert profiler.mode().frequency == dense.mode().frequency
    assert profiler.least().frequency == dense.least().frequency
    assert profiler.histogram() == dense.histogram()
    assert profiler.frequencies() == dense.frequencies()


class HashableUniverseMachine(RuleBasedStateMachine):
    """Stateful fuzz: interleave adds, removes, registrations and reads.

    Reads are rules (not just invariants) so their interleaving with
    growth events is explored; the invariant re-derives every maintained
    quantity from the Counter model.
    """

    ids = st.sampled_from(["a", "b", "c", "d", 0, 1, (2,), "z"])

    @initialize(universe=universes)
    def setup(self, universe):
        self.profiler = _open(universe)
        self.model: Counter = Counter()

    @rule(obj=ids)
    def add(self, obj):
        self.profiler.ingest([(obj, True)])
        self.model[obj] += 1

    @rule(obj=ids)
    def remove(self, obj):
        self.profiler.ingest([(obj, False)])
        self.model[obj] -= 1

    @rule(batch=st.lists(st.tuples(ids, st.integers(-2, 2)), max_size=6))
    def ingest_batch(self, batch):
        self.profiler.ingest(batch)
        for obj, delta in batch:
            self.model[obj] += delta
        # A key whose deltas cancel is never registered.
        for obj in list(self.model):
            if obj not in self.profiler:
                del self.model[obj]

    @rule(obj=ids)
    def register(self, obj):
        self.profiler.register(obj)
        self.model.setdefault(obj, 0)

    @rule(obj=ids)
    def read_frequency(self, obj):
        assert self.profiler.frequency(obj) == self.model.get(obj, 0)

    @rule()
    def read_order_statistics(self):
        if not self.model:
            return
        freqs = sorted(self.model.values())
        assert self.profiler.mode().frequency == freqs[-1]
        assert self.profiler.least().frequency == freqs[0]
        assert (
            self.profiler.median_frequency()
            == freqs[(len(freqs) - 1) // 2]
        )

    @rule()
    def read_board(self):
        if not self.model:
            return
        top = self.profiler.top_k(3)
        expected = sorted(self.model.values(), reverse=True)[:3]
        assert [entry.frequency for entry in top] == expected
        bottom = self.profiler.bottom_k(3)
        assert [entry.frequency for entry in bottom] == sorted(
            self.model.values()
        )[:3]

    @invariant()
    def structure_and_totals(self):
        if not hasattr(self, "profiler"):
            return
        audit_profile(self.profiler.backend)
        assert len(self.profiler) == len(self.model)
        assert self.profiler.total == sum(self.model.values())
        assert self.profiler.active_count == sum(
            1 for value in self.model.values() if value != 0
        )


TestHashableUniverseMachine = HashableUniverseMachine.TestCase
TestHashableUniverseMachine.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
