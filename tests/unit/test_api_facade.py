"""Unit tests for the unified facade: Profiler.open, ingest, backends."""

import json

import pytest

from repro.api import (
    ApproxProfiler,
    Profiler,
    Query,
    available_backends,
)
from repro.api.backends import resolve_backend
from repro.baselines.registry import available_profilers
from repro.core.flat import FlatProfile
from repro.core.profile import SProfile
from repro.engine.sharding import ShardedProfiler
from repro.errors import (
    CapacityError,
    CheckpointError,
    EmptyProfileError,
    FrequencyUnderflowError,
    UnsupportedQueryError,
)
from repro.streams.events import Action, Event


class TestOpen:
    def test_auto_is_flat_without_shards(self):
        profiler = Profiler.open(10)
        assert profiler.backend_name == "flat"
        assert isinstance(profiler.backend, FlatProfile)

    def test_auto_is_flat_at_any_capacity(self):
        name = resolve_backend("auto", "dense", None, capacity=4_000_000)
        assert name == "flat"

    def test_parallel_backend_is_unknown(self):
        with pytest.raises(CapacityError, match="unknown backend"):
            Profiler.open(10, backend="parallel")

    def test_auto_with_freq_index_is_exact(self):
        profiler = Profiler.open(10, track_freq_index=True)
        assert profiler.backend_name == "exact"
        assert isinstance(profiler.backend, SProfile)

    def test_explicit_exact_stays_block_engine(self):
        profiler = Profiler.open(10, backend="exact")
        assert isinstance(profiler.backend, SProfile)

    def test_flat_rejects_freq_index(self):
        with pytest.raises(CapacityError):
            Profiler.open(10, backend="flat", track_freq_index=True)

    def test_auto_with_shards_is_sharded(self):
        profiler = Profiler.open(10, shards=3)
        assert profiler.backend_name == "sharded"
        assert isinstance(profiler.backend, ShardedProfiler)
        assert profiler.n_shards == 3
        assert profiler.backend.core == "flat"

    def test_hashable_keys_intern_over_one_dense_core(self):
        # auto picks the flat core for hashable keys too; exact is the
        # block-object core with the caller's track_freq_index.
        profiler = Profiler.open(keys="hashable")
        assert profiler.backend_name == "flat"
        assert isinstance(profiler.backend, FlatProfile)
        exact = Profiler.open(keys="hashable", backend="exact")
        assert isinstance(exact.backend, SProfile)
        assert not exact.backend.blocks.tracks_freq_index
        indexed = Profiler.open(keys="hashable", track_freq_index=True)
        assert indexed.backend_name == "exact"
        assert indexed.backend.blocks.tracks_freq_index

    def test_every_registry_baseline_opens(self):
        for name in available_profilers():
            profiler = Profiler.open(6, backend=name)
            assert profiler.backend_name == name
            profiler.ingest([(0, +2), (1, +1)])
            assert profiler.frequency(0) == 2

    def test_available_backends_superset_of_registry(self):
        names = available_backends()
        assert {"auto", "exact", "sharded", "approx"} <= set(names)
        assert set(available_profilers()) <= set(names)

    def test_dense_requires_capacity(self):
        with pytest.raises(CapacityError):
            Profiler.open(backend="exact")
        with pytest.raises(CapacityError):
            Profiler.open(backend="sharded", shards=2)

    def test_validation(self):
        with pytest.raises(CapacityError):
            Profiler.open(10, keys="fuzzy")
        with pytest.raises(CapacityError):
            Profiler.open(-1)
        with pytest.raises(CapacityError):
            Profiler.open(10, shards=0)
        with pytest.raises(CapacityError):
            Profiler.open(10, backend="nope")
        with pytest.raises(CapacityError):
            Profiler.open(10, backend="exact", shards=2)
        with pytest.raises(CapacityError):
            Profiler.open(10, backend="exact", bogus_option=1)

    def test_strict_maps_to_allow_negative(self):
        strict = Profiler.open(4, strict=True)
        assert not strict.backend.allow_negative
        loose = Profiler.open(4)
        assert loose.backend.allow_negative


class TestIngestVocabulary:
    """One verb accepts Events, flag pairs, delta pairs and mappings."""

    @pytest.mark.parametrize("shards", [None, 2])
    def test_mixed_batch(self, shards):
        profiler = Profiler.open(10, shards=shards)
        n = profiler.ingest(
            [
                Event(1, Action.ADD),
                (1, Action.ADD),
                (1, True),
                (2, False),
                (3, +4),
            ]
        )
        assert n == 8
        assert profiler.frequency(1) == 3
        assert profiler.frequency(2) == -1
        assert profiler.frequency(3) == 4
        assert profiler.batches_ingested == 1
        assert profiler.events_ingested == 5

    def test_mapping_batch(self):
        profiler = Profiler.open(10)
        assert profiler.ingest({4: +2, 5: -1}) == 3
        assert profiler.frequencies()[4] == 2

    def test_bool_is_flag_int_is_delta(self):
        profiler = Profiler.open(10)
        profiler.ingest([(0, False)])  # flag: one remove
        assert profiler.frequency(0) == -1
        profiler.ingest([(0, 0)])  # delta: no-op
        assert profiler.frequency(0) == -1

    @pytest.mark.parametrize("shards", [None, 2])
    @pytest.mark.parametrize(
        "batch,net,raw",
        [
            ([(1, True), (1, False)], 0, 2),
            ([(1, True), (1, False), (2, True)], 1, 3),
        ],
        ids=["all-cancel", "partial-cancel"],
    )
    def test_opposing_events_coalesce(self, shards, batch, net, raw):
        profiler = Profiler.open(10, shards=shards)
        assert profiler.ingest(batch) == net
        assert profiler.n_events == net
        assert profiler.events_ingested == raw
        assert profiler.batches_ingested == 1

    @pytest.mark.parametrize("shards", [None, 2])
    def test_ingest_arrays(self, shards):
        profiler = Profiler.open(4, shards=shards)
        assert profiler.ingest_arrays([0, 1, 1], [1, 1, 1]) == 3
        assert profiler.frequency(1) == 2
        with pytest.raises(CapacityError):
            profiler.ingest_arrays([0], [1, -1])
        assert profiler.total == 3
        assert profiler.events_ingested == 3

    def test_unparseable_items_rejected(self):
        profiler = Profiler.open(10)
        with pytest.raises(CapacityError):
            profiler.ingest([42])
        with pytest.raises(CapacityError):
            profiler.ingest([(1, "add")])

    def test_out_of_range_rejected_before_mutation(self):
        profiler = Profiler.open(4)
        with pytest.raises(CapacityError):
            profiler.ingest([(0, +1), (99, +1)])
        assert profiler.total == 0

    def test_strict_reject_is_all_or_nothing(self):
        profiler = Profiler.open(4, strict=True)
        profiler.ingest([(0, +1)])
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest({0: -1, 1: -1})
        assert profiler.frequencies() == [1, 0, 0, 0]


class TestHashableKeysOverDenseBackends:
    """The facade interns arbitrary keys for sharded/baseline backends."""

    def _open(self, **kwargs):
        return Profiler.open(
            3, backend="sharded", keys="hashable", shards=2, **kwargs
        )

    def test_round_trip(self):
        profiler = self._open()
        profiler.ingest([("a", +2), ("b", +1)])
        assert profiler.frequency("a") == 2
        assert profiler.frequency("never-seen") == 0
        assert profiler.mode().example == "a"
        assert profiler.top_k(2) == [("a", 2), ("b", 1)]
        assert "a" in profiler and "zzz" not in profiler
        assert len(profiler) == 2

    def test_register_and_capacity_limit(self):
        profiler = self._open()
        for key in ("x", "y", "z"):
            profiler.register(key)
        with pytest.raises(CapacityError):
            profiler.register("overflow")
        with pytest.raises(CapacityError):
            profiler.ingest([("overflow", +1)])
        # The rejected batch registered nothing and mutated nothing.
        assert profiler.total == 0

    def test_strict_remove_of_never_seen_key(self):
        profiler = self._open(strict=True)
        profiler.ingest([("a", +1)])
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest([("ghost", -1)])
        assert "ghost" not in profiler

    def test_strict_known_key_underflow_checked_before_interning(self):
        profiler = self._open(strict=True)
        profiler.ingest([("a", +1)])
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest([("a", -2), ("fresh", +1)])
        assert "fresh" not in profiler
        assert profiler.frequency("a") == 1

    def test_baseline_backend_with_hashable_keys(self):
        profiler = Profiler.open(4, backend="bucket", keys="hashable")
        profiler.ingest([("p", +3), ("q", +1)])
        assert profiler.mode().example == "p"
        assert profiler.top_k(2) == [("p", 3), ("q", 1)]
        assert profiler.majority() == "p"

    def test_register_rejected_for_dense_keys(self):
        with pytest.raises(CapacityError):
            Profiler.open(4).register(1)


class TestQuerySurface:
    def test_full_surface_on_exact(self):
        profiler = Profiler.open(8)
        profiler.ingest({1: 3, 2: 1, 3: 1, 4: -1})
        assert profiler.mode().frequency == 3
        assert profiler.least().frequency == -1
        assert profiler.max_frequency() == 3
        assert profiler.min_frequency() == -1
        assert profiler.median_frequency() == 0
        assert profiler.quantile(0.0) == -1
        assert profiler.quantile(1.0) == 3
        assert profiler.support(0) == 4
        assert profiler.active_count == 4
        assert profiler.total == 4
        assert profiler.kth_most_frequent(1).obj == 1
        assert profiler.frequency_at_rank(0) == -1
        assert profiler.object_at_rank(7) == 1
        assert profiler.majority() == 1  # 3 of 4 total mass
        assert [e.frequency for e in profiler.bottom_k(2)] == [-1, 0]
        assert len(profiler.histogram()) == 4
        assert profiler.heavy_hitters(0.5) == [(1, 3)]
        assert [e.frequency for e in profiler.iter_sorted()][:2] == [-1, 0]

    @pytest.mark.parametrize("shards", [None, 2])
    def test_snapshot_is_frozen(self, shards):
        profiler = Profiler.open(4, shards=shards)
        profiler.ingest([(0, True), (0, True), (3, True)])
        snap = profiler.snapshot()
        profiler.ingest([(1, True)] * 10)
        assert snap.total == 3
        assert sorted(snap.frequencies()) == [0, 0, 1, 2]

    def test_bottom_k_via_merge_on_sharded(self):
        profiler = Profiler.open(6, backend="sharded", shards=3)
        profiler.ingest({0: 5, 1: 2, 2: 1})
        assert [e.frequency for e in profiler.bottom_k(4)] == [0, 0, 0, 1]

    def test_unsupported_queries_raise(self):
        heap = Profiler.open(6, backend="heap-max")
        heap.ingest([(1, +2)])
        assert heap.mode().frequency == 2
        with pytest.raises(UnsupportedQueryError):
            heap.median_frequency()
        with pytest.raises(UnsupportedQueryError):
            heap.bottom_k(2)
        with pytest.raises(UnsupportedQueryError):
            heap.snapshot()
        with pytest.raises(UnsupportedQueryError):
            heap.objects_with_frequency(2)

    def test_supports_introspection(self):
        exact = Profiler.open(4)
        assert exact.supports("mode")
        assert exact.supports("heavy_hitters")
        assert exact.supports("active_count")
        heap = Profiler.open(4, backend="heap-max")
        assert heap.supports("mode")
        assert not heap.supports("median")
        assert not heap.supports("heavy_hitters")
        tree = Profiler.open(4, backend="tree-fenwick")
        assert tree.supports("quantile")
        assert not tree.supports("top_k")

    def test_optional_queries_on_hashable_exact(self):
        # The core holds phantom slots here; the facade answers these
        # over the registered keys only.
        profiler = Profiler.open(keys="hashable")
        profiler.ingest({"a": 5, "b": 2, "c": -1})
        assert profiler.max_frequency() == 5
        assert profiler.min_frequency() == -1
        assert profiler.heavy_hitters(0.5) == [("a", 5)]
        kth = profiler.kth_most_frequent(2)
        assert kth.frequency == 2
        assert profiler.frequency(kth.obj) == 2

    def test_summarize_accepts_the_facade(self):
        from repro.core.stats import summarize

        for backend, extra in (("exact", {}), ("sharded", {"shards": 2})):
            profiler = Profiler.open(6, backend=backend, **extra)
            profiler.ingest({0: 4, 1: 1})
            summary = summarize(profiler)
            assert summary.total == 5
            assert summary.max_frequency == 4


class TestApproxBackend:
    def test_add_only(self):
        profiler = Profiler.open(backend="approx", counters=4)
        with pytest.raises(CapacityError):
            profiler.ingest([("x", -1)])
        profiler.ingest([("x", +3)])
        assert profiler.frequency("x") >= 3

    def test_never_underestimates(self):
        profiler = Profiler.open(backend="approx", counters=8)
        truth = {f"k{i}": i + 1 for i in range(20)}
        profiler.ingest(truth)
        for key, count in truth.items():
            assert profiler.frequency(key) >= count

    def test_mode_and_empty(self):
        profiler = Profiler.open(backend="approx", counters=4)
        with pytest.raises(EmptyProfileError):
            profiler.mode()
        profiler.ingest([("hot", +10), ("cold", +1)])
        assert profiler.mode().example == "hot"
        assert profiler.mode().count is None

    def test_unsupported_surface(self):
        profiler = Profiler.open(backend="approx")
        profiler.ingest([("a", +1)])
        for query in ("least", "median_frequency", "histogram"):
            with pytest.raises(UnsupportedQueryError):
                getattr(profiler, query)()
        with pytest.raises(UnsupportedQueryError):
            profiler.quantile(0.5)
        with pytest.raises(UnsupportedQueryError):
            profiler.support(1)

    def test_options_validated(self):
        with pytest.raises(CapacityError):
            Profiler.open(backend="approx", counters=0)
        with pytest.raises(TypeError):
            Profiler.open(backend="approx", bogus=1)

    def test_direct_class_export(self):
        sketch = ApproxProfiler(counters=2)
        sketch.apply([("a", 1)])
        assert sketch.total == 1


class TestFlatBackend:
    def test_flat_checkpoint_round_trip(self):
        profiler = Profiler.open(20, backend="flat")
        profiler.ingest({i: i % 4 for i in range(20)})
        restored = Profiler.from_state(
            json.loads(json.dumps(profiler.to_state()))
        )
        assert restored.backend_name == "flat"
        assert isinstance(restored.backend, FlatProfile)
        assert restored.frequencies() == profiler.frequencies()
        assert restored.n_events == profiler.n_events

    def test_flat_hashable_checkpoint_round_trip(self):
        profiler = Profiler.open(8, backend="flat", keys="hashable")
        profiler.ingest({"a": 3, "b": 1})
        restored = Profiler.from_state(
            json.loads(json.dumps(profiler.to_state()))
        )
        assert restored.frequency("a") == 3
        assert restored.mode().example == "a"
        assert restored.keys == "hashable"

    def test_flat_hashable_uncataloged_mass_rejected(self):
        profiler = Profiler.open(4, backend="flat", keys="hashable")
        profiler.ingest({"a": 2, "b": 1})
        state = profiler.to_state()
        state["catalog"].pop()  # "b" still holds counted mass
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_sharded_flat_cores_checkpoint_round_trip(self):
        profiler = Profiler.open(12, shards=3)
        assert profiler.backend.core == "flat"
        profiler.ingest({i: i % 3 for i in range(12)})
        restored = Profiler.from_state(profiler.to_state())
        assert restored.backend.core == "flat"
        assert restored.frequencies() == profiler.frequencies()

    def test_parallel_checkpoint_restores_into_sharded(self):
        # A multi-process engine checkpoint is a flat-core sharded
        # checkpoint labelled "parallel" (checked field for field
        # against a real one before that engine was removed).
        stream = [(3, 5), (7, 2), (11, -1), (0, 4), (39, 3), (3, -2)]
        profiler = Profiler.open(40, backend="sharded", shards=2)
        profiler.ingest(stream)
        state = json.loads(json.dumps(profiler.to_state()))
        state["backend"] = "parallel"
        restored = Profiler.from_state(state)
        assert restored.backend_name == "sharded"
        assert isinstance(restored.backend, ShardedProfiler)
        assert restored.backend.core == "flat"
        assert restored.frequencies() == profiler.frequencies()
        assert restored.histogram() == profiler.histogram()
        assert restored.to_state() == dict(state, backend="sharded")

    def test_parallel_checkpoint_requires_flat_cores(self):
        profiler = Profiler.open(
            10, backend="sharded", shards=2, track_freq_index=True
        )
        state = profiler.to_state()
        state["backend"] = "parallel"
        with pytest.raises(CheckpointError, match="flat cores"):
            Profiler.from_state(state)

    def test_pre_core_sharded_checkpoints_load_as_sprofile(self):
        profiler = Profiler.open(
            10, backend="sharded", shards=2, track_freq_index=True
        )
        assert profiler.backend.core == "sprofile"
        profiler.ingest({1: 2})
        state = profiler.to_state()
        del state["core"]  # a checkpoint written before flat cores
        restored = Profiler.from_state(state)
        assert restored.backend.core == "sprofile"
        assert restored.frequency(1) == 2

    def test_describe_flat(self):
        profiler = Profiler.open(10)
        profiler.ingest({1: 2, 2: 1})
        info = profiler.describe()
        assert info["backend"] == "flat"
        engine = info["engine"]
        assert engine["kind"] == "flat"
        assert engine["block_count"] == 3
        assert engine["block_slots"] >= engine["block_count"]
        assert engine["free_slots"] == (
            engine["block_slots"] - engine["block_count"]
        )

    def test_describe_sprofile_pool(self):
        profiler = Profiler.open(10, backend="exact")
        profiler.ingest({1: 2})
        engine = profiler.describe()["engine"]
        assert engine["kind"] == "sprofile"
        assert engine["pool"]["max_free"] == 10
        assert engine["pool"]["free"] >= 0

    def test_describe_sharded_and_hashable(self):
        sharded = Profiler.open(8, shards=2)
        info = sharded.describe()
        assert info["engine"]["kind"] == "sharded"
        assert info["engine"]["core"] == "flat"
        assert len(info["engine"]["shards"]) == 2
        hashable = Profiler.open(keys="hashable", backend="exact")
        hashable.ingest([("a", +1)])
        info = hashable.describe()
        assert info["capacity"] == 1
        assert info["engine"]["kind"] == "sprofile"

    def test_describe_structureless_backend_has_no_engine(self):
        info = Profiler.open(backend="approx").describe()
        assert "engine" not in info
        assert info["backend"] == "approx"


def _tamper_base(backend):
    """A 7-slot checkpoint with mass on the first (or only) core."""
    shards = 2 if backend == "sharded" else None
    profiler = Profiler.open(7, backend=backend, shards=shards)
    profiler.ingest({0: 2, 1: 1, 4: 3})
    return json.loads(json.dumps(profiler.to_state()))


def _core(state):
    """The first (sharded) or only core profile state of a checkpoint."""
    profile = state["profile"]
    return profile[0] if isinstance(profile, list) else profile


def _bump_first_run(state):
    """Edit the frequency of the first core's lowest run."""
    _core(state)["runs"][0][2] += 1_000_000


#: Corruptions every dense backend's checkpoint must refuse.
TAMPERS = {
    "version": lambda s: s.update(version=99),
    "keys-mode": lambda s: s.update(keys="fuzzy"),
    "batches-negative": lambda s: s.update(batches=-1),
    "batches-str": lambda s: s.update(batches="3"),
    "events-str": lambda s: s.update(events="many"),
    "events-negative": lambda s: s.update(events=-4),
    "no-profile": lambda s: s.pop("profile"),
    "backend": lambda s: s.update(backend="bucket"),
    "capacity-str": lambda s: s.update(capacity="10"),
    "capacity-negative": lambda s: s.update(capacity=-1),
    "capacity-mismatch": lambda s: s.update(capacity=99),
    "capacity-float": lambda s: s.update(capacity=float(s["capacity"])),
    "profile-str": lambda s: s.update(profile="oops"),
    "catalog-int": lambda s: s.update(catalog=0),
    "catalog-unhashable": lambda s: s.update(catalog=[[0]]),
    "ttof-int": lambda s: _core(s).update(ttof=0),
    "n_adds-str": lambda s: _core(s).update(n_adds="x"),
    "n_adds-none": lambda s: _core(s).update(n_adds=None),
    "n_removes-str": lambda s: _core(s).update(n_removes="x"),
    "runs-edited": _bump_first_run,
    "strict-none": lambda s: s.update(strict=None),
    "strict-int": lambda s: s.update(strict=int(s["strict"])),
    "allow_negative-str": lambda s: _core(s).update(allow_negative="x"),
    "track_freq_index-str": lambda s: _core(s).update(
        track_freq_index="x"
    ),
}

#: Envelope fields an unsharded checkpoint must leave null.
UNSHARDED_TAMPERS = {
    "shards-str": lambda s: s.update(shards="x"),
    "shards-int": lambda s: s.update(shards=2),
}

#: Corruptions of the sharded envelope (the shard list and its count).
SHARD_TAMPERS = {
    "shards-str": lambda s: s.update(shards="2"),
    "shards-zero": lambda s: s.update(shards=0),
    "shard-count": lambda s: s.update(profile=s["profile"][:-1]),
    "mixed-allow-negative": lambda s: s["profile"][0].update(
        allow_negative=False
    ),
}

TAMPER_CASES = [
    pytest.param(backend, mutate, id=f"{name}-{backend}")
    for name, mutate in TAMPERS.items()
    for backend in ("flat", "exact", "sharded")
] + [
    pytest.param("sharded", mutate, id=f"{name}-sharded")
    for name, mutate in SHARD_TAMPERS.items()
] + [
    pytest.param(backend, mutate, id=f"{name}-{backend}")
    for name, mutate in UNSHARDED_TAMPERS.items()
    for backend in ("flat", "exact")
]


class TestCheckpoints:
    def _assert_round_trip(self, profiler):
        restored = Profiler.from_state(
            json.loads(json.dumps(profiler.to_state()))
        )
        assert restored.backend_name == profiler.backend_name
        assert restored.keys == profiler.keys
        assert restored.total == profiler.total
        assert restored.batches_ingested == profiler.batches_ingested
        assert restored.events_ingested == profiler.events_ingested
        return restored

    def test_exact_dense(self):
        profiler = Profiler.open(8)
        profiler.ingest({0: 3, 5: -2})
        restored = self._assert_round_trip(profiler)
        assert restored.frequencies() == profiler.frequencies()

    def test_exact_hashable(self):
        profiler = Profiler.open(keys="hashable")
        profiler.ingest([("ada", +2), ("bob", +1)])
        restored = self._assert_round_trip(profiler)
        assert restored.frequency("ada") == 2
        restored.ingest([("new-key", +1)])
        assert restored.frequency("new-key") == 1

    def test_sharded_dense(self):
        profiler = Profiler.open(11, backend="sharded", shards=3)
        profiler.ingest({i: i for i in range(11)})
        restored = self._assert_round_trip(profiler)
        assert restored.histogram() == profiler.histogram()

    def test_sharded_hashable(self):
        profiler = Profiler.open(
            4, backend="sharded", keys="hashable", shards=2
        )
        profiler.ingest([("x", +2), ("y", +1)])
        restored = self._assert_round_trip(profiler)
        assert restored.frequency("x") == 2
        assert restored.mode().example == "x"

    @pytest.mark.parametrize("backend", ["flat", "exact"])
    def test_tuple_keys_survive_save_load(self, tmp_path, backend):
        # JSON writes tuples as lists; load must turn them back.
        keys = [(1, 2), ("a", (3, ("b", 4))), ((), 5), "plain"]
        profiler = Profiler.open(8, keys="hashable", backend=backend)
        profiler.ingest([(key, n + 1) for n, key in enumerate(keys)])
        path = tmp_path / "tuples.json"
        profiler.save(path)
        restored = Profiler.load(path)
        for n, key in enumerate(keys):
            assert restored.frequency(key) == n + 1
        restored.ingest([((1, 2), 1)])
        assert restored.frequency((1, 2)) == 2
        assert restored.to_state()["catalog"] == (
            profiler.to_state()["catalog"]
        )

    @pytest.mark.parametrize("backend", ["flat", "exact"])
    @pytest.mark.parametrize("catalog", [[[{}]], [[0], [0]], [{}]])
    def test_bad_hashable_catalog_rejected(self, backend, catalog):
        # A list can only stand for a tuple: one holding an unhashable
        # item, or two lists naming one tuple, must still be refused.
        profiler = Profiler.open(8, keys="hashable", backend=backend)
        profiler.ingest([("a", 1)])
        state = json.loads(json.dumps(profiler.to_state()))
        state["catalog"] = catalog
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_save_load_file(self, tmp_path):
        profiler = Profiler.open(6, backend="sharded", shards=2, strict=True)
        profiler.ingest({2: 4})
        path = tmp_path / "facade.json"
        profiler.save(path)
        restored = Profiler.load(path)
        assert restored.strict
        assert restored.frequency(2) == 4
        with pytest.raises(FrequencyUnderflowError):
            restored.ingest({2: -5})

    def test_unsupported_backends_refuse(self):
        # Baselines are the only rows left without checkpoint support
        # (approx gained to_state/from_state; see TestApproxCheckpoints).
        bucket = Profiler.open(4, backend="bucket")
        with pytest.raises(CheckpointError):
            bucket.to_state()

    @pytest.mark.parametrize("backend,mutate", TAMPER_CASES)
    def test_tampered_states_rejected(self, backend, mutate):
        state = _tamper_base(backend)
        mutate(state)
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_restored_sharded_profile_keeps_ingesting(self):
        profiler = Profiler.open(11, shards=3)
        profiler.ingest([(x % 11, True) for x in range(40)])
        restored = Profiler.from_state(profiler.to_state())
        restored.ingest([(5, True), (5, True)])
        assert restored.frequency(5) == profiler.frequency(5) + 2
        restored.backend.audit()

    def test_load_rejects_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            Profiler.load(path)

    def test_strict_flag_must_match_profile(self):
        profiler = Profiler.open(6, strict=True)
        state = profiler.to_state()
        state["strict"] = False
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_sharded_partition_tamper_rejected(self):
        profiler = Profiler.open(7, backend="sharded", shards=2)
        state = profiler.to_state()
        state["capacity"] = 9
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_sharded_truncated_catalog_rejected(self):
        profiler = Profiler.open(
            3, backend="sharded", keys="hashable", shards=2
        )
        profiler.ingest({"a": 2, "b": 1, "c": 1})
        state = profiler.to_state()
        state["catalog"].pop()  # "c" still holds counted mass
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_hashable_phantom_tamper_rejected(self):
        profiler = Profiler.open(keys="hashable")
        profiler.ingest([("a", +1)])
        state = profiler.to_state()
        state["catalog"] = []  # registered mass now sits in a "phantom"
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)


class TestFromFrequencies:
    def test_degree_sequence_entry_point(self):
        profiler = Profiler.from_frequencies([3, 1, 4, 1, 5])
        assert profiler.backend_name == "flat"
        assert profiler.frequency(4) == 5
        assert profiler.object_at_rank(0) in (1, 3)
        assert profiler.total == 14


class TestApproxCheckpoints:
    """`to_state`/`from_state` parity for the sketch backend (the
    server's checkpoint download must work for every backend row)."""

    def build(self):
        profiler = Profiler.open(backend="approx", counters=8)
        profiler.ingest([(i % 5, +1) for i in range(60)])
        profiler.ingest({"hot": 30, "warm": 6})
        return profiler

    def test_round_trip_preserves_every_answer(self):
        profiler = self.build()
        restored = Profiler.from_state(profiler.to_state())
        assert restored.backend_name == "approx"
        for key in (0, 1, 4, "hot", "warm", "never-seen"):
            assert restored.frequency(key) == profiler.frequency(key)
        assert restored.top_k(8) == profiler.top_k(8)
        assert restored.heavy_hitters(0.2) == profiler.heavy_hitters(0.2)
        assert restored.n_events == profiler.n_events
        assert restored.total == profiler.total
        assert (
            restored.backend.error_bound()
            == profiler.backend.error_bound()
        )
        assert restored.backend.guaranteed_count(
            "hot"
        ) == profiler.backend.guaranteed_count("hot")

    def test_restored_profiler_keeps_counting(self):
        restored = Profiler.from_state(self.build().to_state())
        before = restored.frequency("hot")
        restored.ingest({"hot": 5})
        assert restored.frequency("hot") == before + 5

    def test_state_is_json_safe_for_scalar_keys(self):
        profiler = self.build()
        state = json.loads(json.dumps(profiler.to_state()))
        restored = Profiler.from_state(state)
        assert restored.frequency("hot") == profiler.frequency("hot")
        assert restored.top_k(3) == profiler.top_k(3)

    def test_save_load(self, tmp_path):
        profiler = self.build()
        path = tmp_path / "approx.json"
        profiler.save(path)
        assert Profiler.load(path).frequency("hot") == (
            profiler.frequency("hot")
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: s["profile"].pop("sketch"),
            lambda s: s["profile"].update(counters=-1),
            lambda s: s["profile"].update(n_adds="lots"),
            lambda s: s["profile"]["sketch"].update(total=999_999),
            lambda s: s["profile"]["summary"]["slots"].pop(),
            lambda s: s["profile"]["summary"]["slots"][0].__setitem__(1, -4),
            lambda s: s["profile"]["sketch"].update(a=[0, 0, 0]),
        ],
    )
    def test_tampered_states_rejected(self, corrupt):
        state = self.build().to_state()
        corrupt(state)
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_duplicate_monitored_object_rejected(self):
        state = self.build().to_state()
        slots = state["profile"]["summary"]["slots"]
        slots[1][0] = slots[0][0]
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)


class TestCloseMatrix:
    """`close()` is documented idempotent on *every* backend; the
    server's graceful shutdown leans on that, so the whole matrix is
    pinned."""

    SPECS = [
        ("flat", dict(capacity=64)),
        ("exact", dict(capacity=64)),
        ("sharded", dict(capacity=64, shards=2)),
        ("approx", dict(counters=8)),
        ("exact-hashable", dict(keys="hashable")),
        ("flat-hashable", dict(capacity=64, backend="flat",
                               keys="hashable")),
        ("bucket", dict(capacity=64)),
        ("flat-array", dict(capacity=64, array_engine=True)),
    ]

    def open_profiler(self, name, options):
        options = dict(options)
        capacity = options.pop("capacity", None)
        backend = options.pop(
            "backend",
            {
                "flat": "flat",
                "exact": "exact",
                "sharded": "sharded",
                "approx": "approx",
                "exact-hashable": "exact",
                "bucket": "bucket",
                "flat-array": "flat",
            }.get(name, "auto"),
        )
        return Profiler.open(capacity, backend=backend, **options)

    @pytest.mark.parametrize(
        "name,options", SPECS, ids=[name for name, _ in SPECS]
    )
    def test_close_twice_and_context_manager(self, name, options):
        profiler = self.open_profiler(name, options)
        key = "k" if "hashable" in name or name == "approx" else 3
        profiler.ingest({key: 2})
        profiler.close()
        profiler.close()  # idempotent

        with self.open_profiler(name, options) as ctx:
            assert ctx.ingest({key: 2}) == 2
        ctx.close()  # idempotent after __exit__ too
