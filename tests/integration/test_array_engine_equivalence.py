"""Integration: the flat backend's array engine behind the facade.

``Profiler.open(m, backend="flat", array_engine=True)`` is the fast
single-process configuration.  Longer randomized streams go through
it and through every other checkpointable backend; its checkpoints
must restore and keep answering exactly like the serial engines fed
the same stream, in both directions.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api import Profiler, Query
from repro.errors import CapacityError

np = pytest.importorskip("numpy")

M = 48
CHECKPOINT_BACKENDS = ("flat", "exact", "sharded", "flat-array")


def open_backend(name, **kwargs):
    extra = {}
    if name == "sharded":
        extra["shards"] = 3
    if name == "flat-array":
        name = "flat"
        extra["array_engine"] = True
    extra.update(kwargs)
    return Profiler.open(M, backend=name, **extra)


def drive(profiler, seed, batches=12, batch_size=400):
    rng = random.Random(seed)
    for _ in range(batches):
        batch = [
            (rng.randrange(M), rng.randrange(-2, 4))
            for _ in range(batch_size)
        ]
        profiler.ingest(batch)


def assert_same_answers(a, b):
    assert a.frequencies() == b.frequencies()
    assert a.total == b.total
    assert a.histogram() == b.histogram()
    assert a.mode().frequency == b.mode().frequency
    assert a.mode().count == b.mode().count
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert a.quantile(q) == b.quantile(q)
    assert [e.frequency for e in a.top_k(10)] == [
        e.frequency for e in b.top_k(10)
    ]


class TestStreamEquivalence:
    def test_long_stream_matches_flat(self):
        with open_backend("flat-array") as array:
            flat = Profiler.open(M, backend="flat")
            drive(array, seed=7)
            drive(flat, seed=7)
            assert_same_answers(array, flat)

    def test_array_ingest_matches_pair_ingest(self):
        rng = random.Random(5)
        with open_backend("flat-array") as array:
            exact = open_backend("exact")
            for _ in range(10):
                ids = np.array(
                    [rng.randrange(M) for _ in range(300)], dtype=np.int64
                )
                deltas = np.array(
                    [rng.randrange(-2, 4) for _ in range(300)], dtype=np.int64
                )
                assert array.ingest_arrays(ids, deltas) == exact.ingest(
                    list(zip(ids.tolist(), deltas.tolist()))
                )
            assert_same_answers(array, exact)
            assert array.events_ingested == exact.events_ingested

    def test_fused_plan_matches_standalone(self):
        with open_backend("flat-array") as array:
            drive(array, seed=11)
            plan = (
                Query.mode(),
                Query.top_k(5),
                Query.histogram(),
                Query.quantile(0.5),
                Query.support(0),
                Query.total(),
            )
            result = array.evaluate(*plan)
            assert result["histogram"] == array.histogram()
            assert result[Query.quantile(0.5)] == array.quantile(0.5)
            assert result[Query.support(0)] == array.support(0)
            assert result["total"] == array.total

    def test_describe_reports_array_storage(self):
        with open_backend("flat-array") as array:
            drive(array, seed=2, batches=2)
            engine = array.describe()["engine"]
            assert engine["kind"] == "flat"
            assert engine["storage"] == "array"
        assert open_backend("flat").describe()["engine"]["storage"] == "list"

    @pytest.mark.parametrize("other", ("exact", "sharded", "approx"))
    def test_array_engine_is_a_flat_only_option(self, other):
        with pytest.raises(CapacityError, match="array_engine="):
            Profiler.open(M, backend=other, array_engine=True)


class TestCheckpointRoundTrips:
    """array engine <-> every other checkpointable backend."""

    def test_state_is_json_safe_and_versioned(self, tmp_path):
        with open_backend("flat-array") as p:
            drive(p, seed=3)
            state = p.to_state()
            text = json.dumps(state)
            assert state["backend"] == "flat"
            path = tmp_path / "flat-array.json"
            path.write_text(text)
            expected = p.frequencies()
        restored = Profiler.load(path)
        try:
            assert restored.backend_name == "flat"
            assert restored.frequencies() == expected
        finally:
            restored.close()

    @pytest.mark.parametrize("other", CHECKPOINT_BACKENDS)
    def test_restored_array_engine_answers_like_backend(self, other):
        """Save the array engine, restore, and compare the restored
        profiler against `other` fed the identical stream."""
        with open_backend("flat-array") as p:
            drive(p, seed=21)
            state = p.to_state()
        restored = Profiler.from_state(state)
        peer = open_backend(other)
        try:
            drive(peer, seed=21)
            assert_same_answers(restored, peer)
            # The restored engine keeps ingesting correctly.
            restored.ingest({0: +5})
            peer.ingest({0: +5})
            assert restored.frequency(0) == peer.frequency(0)
        finally:
            restored.close()
            peer.close()

    @pytest.mark.parametrize("other", ("flat", "exact", "sharded"))
    def test_other_backend_checkpoints_reload_beside_array_engine(
        self, other
    ):
        """The reverse direction: any serial checkpoint restores and
        answers exactly like a live array engine on the same stream."""
        peer = open_backend(other)
        drive(peer, seed=33)
        restored = Profiler.from_state(peer.to_state())
        with open_backend("flat-array") as p:
            drive(p, seed=33)
            assert_same_answers(restored, p)
        peer.close()
        restored.close()

    def test_strict_round_trip_preserves_strictness(self):
        with open_backend("flat-array", strict=True) as p:
            p.ingest({1: 3})
            state = p.to_state()
        restored = Profiler.from_state(state)
        try:
            assert restored.strict
            with pytest.raises(Exception) as excinfo:
                restored.ingest({1: -10})
            assert "negative" in str(excinfo.value)
            assert restored.frequency(1) == 3
        finally:
            restored.close()

    def test_hashable_keys_round_trip(self):
        with Profiler.open(
            16, backend="flat", array_engine=True, keys="hashable"
        ) as p:
            p.ingest([("ada", +2), ("bob", +1), ("eve", +4)])
            state = p.to_state()
            json.dumps(state)
        restored = Profiler.from_state(state)
        try:
            assert restored.frequency("eve") == 4
            assert restored.top_k(1)[0].obj == "eve"
        finally:
            restored.close()
