"""Unit tests for the flat engine's array storage (``array_engine=True``).

The array engine keeps the flat structure in numpy buffers and
vectorizes the batch paths.  Every contract here is asserted on both
storages, or against the list engine and the block-object engine fed
the same events: batch validation before mutation, strict-mode
all-or-nothing batches, and checkpoints that keep ingesting.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import (
    flat_profile_from_array_state,
    flat_profile_from_state,
    flat_profile_to_array_state,
    profile_to_state,
)
from repro.core.flat import FlatProfile
from repro.core.profile import SProfile
from repro.errors import CapacityError, FrequencyUnderflowError

np = pytest.importorskip("numpy")

M = 60
ENGINES = ("list", "array")


def make(engine, capacity=M, **kwargs):
    return FlatProfile(capacity, array_engine=engine == "array", **kwargs)


def reference(kind, capacity=M, **kwargs):
    if kind == "exact":
        return SProfile(capacity, **kwargs)
    return FlatProfile(capacity, **kwargs)


class TestEquivalence:
    @pytest.mark.parametrize("kind", ("list", "exact"))
    def test_mixed_ops_match_reference(self, kind, rng):
        engine = make("array")
        ref = reference(kind)
        for _ in range(300):
            x = rng.randrange(M)
            if rng.random() < 0.6:
                engine.add(x)
                ref.add(x)
            else:
                engine.remove(x)
                ref.remove(x)
        batch = np.array([rng.randrange(M) for _ in range(4000)])
        assert engine.add_many(batch) == ref.add_many(batch)
        assert engine.remove_many(batch[:700]) == ref.remove_many(
            batch[:700]
        )
        deltas = [(rng.randrange(M), rng.randrange(-2, 3)) for _ in range(30)]
        assert engine.apply(deltas) == ref.apply(deltas)
        ids = np.array([rng.randrange(M) for _ in range(500)])
        adds = np.array([rng.random() < 0.5 for _ in range(500)])
        assert engine.consume_arrays(ids, adds) == ref.consume_arrays(
            ids, adds
        )

        assert engine.frequencies() == ref.frequencies()
        assert engine.total == ref.total
        assert engine.n_events == ref.n_events
        assert engine.mode().frequency == ref.mode().frequency
        assert engine.least().frequency == ref.least().frequency
        assert engine.histogram() == ref.histogram()
        assert [e.frequency for e in engine.top_k(9)] == [
            e.frequency for e in ref.top_k(9)
        ]
        assert engine.median_frequency() == ref.median_frequency()
        for q in (0.0, 0.3, 1.0):
            assert engine.quantile(q) == ref.quantile(q)
        assert engine.support(0) == ref.support(0)
        engine.audit()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_apply_arrays_matches_apply(self, engine, rng):
        p = make(engine)
        ref = make(engine)
        keys = np.array(sorted(rng.sample(range(M), 20)), dtype=np.int64)
        sums = np.array([rng.randrange(-3, 5) for _ in range(20)])
        assert p.apply_arrays(keys, sums) == ref.apply(
            dict(zip(keys.tolist(), sums.tolist()))
        )
        assert p.frequencies() == ref.frequencies()
        p.audit()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_snapshot_and_clear(self, engine):
        p = make(engine)
        p.add_many([1, 1, 5])
        snap = p.snapshot()
        p.clear()
        assert p.total == 0
        assert p.frequencies() == [0] * M
        assert snap.frequencies()[1] == 2
        p.add_many(np.array([7, 7]))
        assert p.histogram() == [(0, M - 1), (2, 1)]
        p.audit()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_consume_arrays_rejects_bad_shapes_and_dtypes(self, engine):
        p = make(engine)
        p.add_many([2, 2])
        before = p.frequencies()
        with pytest.raises(TypeError):
            p.consume_arrays(
                np.array([[1, 2], [3, 4]]), np.ones((2, 2), dtype=bool)
            )
        with pytest.raises(TypeError):
            p.consume_arrays(np.array([1.5]), np.array([True]))
        assert p.frequencies() == before
        p.audit()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bad_id_rejects_batch_before_any_mutation(self, engine):
        p = make(engine)
        p.add_many([1, 2])
        before = p.frequencies()
        with pytest.raises(CapacityError):
            p.add_many([3, M + 7])
        with pytest.raises(CapacityError):
            p.add_many(np.array([3, M + 7]))
        with pytest.raises(CapacityError):
            p.remove_many(np.array([1, -1]))
        with pytest.raises(CapacityError):
            p.apply({-1: 2})
        with pytest.raises(CapacityError):
            p.apply_arrays(np.array([1, M]), np.array([1, 1]))
        with pytest.raises(CapacityError):
            p.add(M)
        assert p.frequencies() == before
        assert p.n_events == 2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_array_iterables_ingest(self, engine):
        p = make(engine)
        ref = SProfile(M)
        p.add_many(iter([3, 3, 4]))
        ref.add_many([3, 3, 4])
        p.remove_many(x for x in [3])
        ref.remove_many([3])
        assert p.frequencies() == ref.frequencies()
        assert p.n_events == ref.n_events

    @pytest.mark.parametrize("engine", ENGINES)
    def test_consume_event_stream(self, engine):
        p = make(engine)
        ref = SProfile(M)
        events = [(5, True), (5, True), (5, False), (9, True)]
        assert p.consume(events) == ref.consume(events)
        assert p.frequencies() == ref.frequencies()

    def test_numpy_scalar_ids_answer_plain_ints(self):
        p = make("array")
        p.add(np.int64(4))
        p.add_many(np.array([4, 4], dtype=np.int32))
        assert p.frequency(np.int64(4)) == 3
        assert type(p.frequency(4)) is int
        assert p.frequencies().count(0) == M - 1


class TestStrictMode:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_remove_many_all_or_nothing(self, engine):
        p = make(engine, 10, allow_negative=False)
        p.add_many([0, 1, 2, 3, 4, 5])
        before = p.frequencies()
        # Key 1 underflows; keys 0 and 2 alone would be fine, but
        # nothing may change.
        with pytest.raises(FrequencyUnderflowError):
            p.remove_many([0, 2, 1, 1])
        with pytest.raises(FrequencyUnderflowError):
            p.remove_many(np.array([0, 2, 1, 1]))
        assert p.frequencies() == before
        # A dense batch takes the wholesale-rebuild path.
        with pytest.raises(FrequencyUnderflowError):
            p.remove_many(np.array([0, 1, 2, 3, 4, 5, 6]))
        assert p.frequencies() == before
        p.audit()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_apply_all_or_nothing(self, engine):
        p = make(engine, 10, allow_negative=False)
        p.apply({0: 2, 1: 2})
        before = p.frequencies()
        with pytest.raises(FrequencyUnderflowError):
            p.apply({0: -1, 1: -5})
        with pytest.raises(FrequencyUnderflowError):
            p.apply_arrays(np.array([0, 1]), np.array([-1, -5]))
        assert p.frequencies() == before
        p.audit()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_per_event_strict_remove_raises(self, engine):
        p = make(engine, 10, allow_negative=False)
        p.add(3)
        p.remove(3)
        with pytest.raises(FrequencyUnderflowError):
            p.remove(3)
        assert p.frequencies() == [0] * 10
        assert p.n_events == 2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_strict_matches_exact_engine(self, engine, rng):
        p = make(engine, 12, allow_negative=False)
        ref = SProfile(12, allow_negative=False)
        for _ in range(120):
            x = rng.randrange(12)
            delta = rng.randrange(-2, 3)
            if delta == 0:
                continue
            outcomes = []
            for target in (p, ref):
                try:
                    target.apply({x: delta})
                    outcomes.append("ok")
                except FrequencyUnderflowError:
                    outcomes.append("underflow")
            assert outcomes[0] == outcomes[1]
        assert p.frequencies() == ref.frequencies()
        p.audit()


class TestCheckpoint:
    def test_array_state_restore_keeps_ingesting(self, rng):
        p = make("array")
        p.add_many(np.array([rng.randrange(M) for _ in range(1000)]))
        restored = flat_profile_from_array_state(
            flat_profile_to_array_state(p)
        )
        assert restored.array_engine
        batch = np.array([rng.randrange(M) for _ in range(500)])
        p.add_many(batch)
        restored.add_many(batch)
        p.remove_many(batch[:100])
        restored.remove_many(batch[:100])
        assert restored.frequencies() == p.frequencies()
        assert restored.n_events == p.n_events
        restored.audit()

    def test_array_state_restore_is_independent_of_source(self):
        p = make("array")
        p.add_many([1, 1, 2])
        restored = flat_profile_from_array_state(
            flat_profile_to_array_state(p)
        )
        p.add_many([1] * 5)
        assert restored.frequency(1) == 2
        restored.add(2)
        assert p.frequency(2) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_json_state_restores_strict_flag(self, engine):
        p = make(engine, 10, allow_negative=False)
        p.add_many([4, 4])
        restored = flat_profile_from_state(
            profile_to_state(p), array_engine=engine == "array"
        )
        assert not restored.allow_negative
        with pytest.raises(FrequencyUnderflowError):
            restored.remove_many([4, 4, 4])
        assert restored.frequency(4) == 2
