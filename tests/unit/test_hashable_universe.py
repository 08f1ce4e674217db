"""Hashable-key universes: the facade's interner over one dense core.

Every case runs on three universes: ``growable`` (no capacity; the
flat core doubles on demand), ``growable-exact`` (the same over the
block-object core) and ``bounded`` (a declared capacity, so the flat
core is allocated whole).  All three hold *phantom* slots — dense ids
no key has claimed, pinned at frequency 0 — and none may ever name or
count one.
"""

import json
import math
from pathlib import Path

import pytest

from repro.api import Profiler, Query
from repro.core.blockset import BlockSet
from repro.core.flat import FlatProfile, _FlatBlockReader
from repro.core.queries import ModeResult
from repro.core.validation import audit_profile
from repro.errors import (
    CapacityError,
    CheckpointError,
    EmptyProfileError,
    FrequencyUnderflowError,
)
from repro.obs import MetricsRegistry

#: ``backend="exact"`` hashable states written by the release that
#: still had a separate dynamic-universe profiler: one growable
#: (``capacity: null``, phantom slots in the core) and one whose core
#: grew past its ``capacity`` hint.
LEGACY_STATES = Path(__file__).parent.parent / "data" / (
    "legacy_exact_hashable_states.json"
)

UNIVERSES = {
    "growable": dict(),
    "growable-exact": dict(backend="exact"),
    "bounded": dict(capacity=1024, backend="flat"),
}


@pytest.fixture(params=sorted(UNIVERSES))
def open_universe(request):
    def opener(strict=False):
        return Profiler.open(
            keys="hashable", strict=strict, **UNIVERSES[request.param]
        )

    return opener


def _phantoms(profiler):
    return profiler.backend.capacity - len(profiler)


class TestRegistration:
    def test_ingest_registers(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("ada", True)])
        assert "ada" in profiler
        assert len(profiler) == 1
        assert profiler.frequency("ada") == 1

    def test_register_without_event(self, open_universe):
        profiler = open_universe()
        profiler.register("bob")
        profiler.register("bob")
        assert profiler.frequency("bob") == 0
        assert len(profiler) == 1
        assert profiler.n_events == 0

    def test_unknown_frequency_is_zero(self, open_universe):
        profiler = open_universe()
        assert profiler.frequency("ghost") == 0
        assert "ghost" not in profiler

    def test_many_registrations(self, open_universe):
        profiler = open_universe()
        for i in range(500):
            profiler.ingest([(i, True)])
        assert len(profiler) == 500
        assert profiler.total == 500
        assert profiler.mode().frequency == 1
        assert profiler.least().frequency == 1
        audit_profile(profiler.backend)

    def test_negative_capacity_rejected(self):
        with pytest.raises(CapacityError):
            Profiler.open(-1, keys="hashable")

    def test_capacity_is_registered_count_when_growable(self):
        profiler = Profiler.open(keys="hashable")
        assert profiler.capacity == len(profiler) == 0
        profiler.ingest([("a", 1), ("b", 1), ("c", 1)])
        assert profiler.capacity == len(profiler) == 3
        assert profiler.describe()["capacity"] == 3

    def test_capacity_bounds_every_single_core(self):
        for backend in ("flat", "exact"):
            profiler = Profiler.open(2, backend=backend, keys="hashable")
            profiler.ingest([("a", 1), ("b", 1)])
            with pytest.raises(CapacityError):
                profiler.ingest([("c", 1)])
            with pytest.raises(CapacityError):
                profiler.register("c")
            assert len(profiler) == 2 and profiler.capacity == 2


class TestGrowth:
    def test_growth_doubles_from_eight(self):
        profiler = Profiler.open(keys="hashable")
        assert profiler.backend.capacity == 0
        sizes = []
        for i in range(40):
            profiler.ingest([(f"user{i}", True)])
            sizes.append(profiler.backend.capacity)
        assert sorted(set(sizes)) == [8, 16, 32, 64]
        audit_profile(profiler.backend)

    def test_one_batch_grows_once_to_fit(self):
        registry = MetricsRegistry()
        profiler = Profiler.open(keys="hashable", obs=registry)
        profiler.ingest([(i, 1) for i in range(100)])
        assert profiler.backend.capacity == 128
        assert registry.counter("engine.grow.events").value == 1

    @pytest.mark.parametrize("batch", [1, 64, 2000])
    def test_grow_count_is_logarithmic(self, batch):
        registry = MetricsRegistry()
        profiler = Profiler.open(keys="hashable", obs=registry)
        fresh = 100_000
        for start in range(0, fresh, batch):
            profiler.ingest(
                [(k, 1) for k in range(start, min(start + batch, fresh))]
            )
        grows = registry.counter("engine.grow.events").value
        assert grows <= math.ceil(math.log2(fresh / 8)) + 1
        assert len(profiler) == fresh
        assert profiler.total == fresh
        assert profiler.backend.capacity < 2 * fresh

    def test_register_grows(self):
        profiler = Profiler.open(keys="hashable", backend="exact")
        for i in range(9):
            profiler.register(i)
        assert profiler.backend.capacity == 16
        assert profiler.support(0) == 9

    def test_rejected_batch_changes_nothing_observable(self):
        profiler = Profiler.open(keys="hashable", strict=True)
        profiler.ingest([("seen", 1)])
        before = profiler.evaluate(Query.histogram(), Query.total())
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest(
                [(f"new{i}", 1) for i in range(20)] + [("seen", -2)]
            )
        assert len(profiler) == 1
        assert "new0" not in profiler
        assert profiler.evaluate(Query.histogram(), Query.total()) == before

    def test_rejected_batch_never_grows_the_core(self):
        profiler = Profiler.open(keys="hashable", strict=True)
        profiler.ingest([(f"k{i}", 1) for i in range(8)])
        assert profiler.backend.capacity == 8
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest(
                [("k0", -5)] + [(f"new{i}", 1) for i in range(20)]
            )
        assert profiler.backend.capacity == 8
        state = profiler.to_state()
        assert Profiler.from_state(state).backend.capacity == 8


class TestRemoveSemantics:
    def test_remove_known(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("x", True)])
        profiler.ingest([("x", False)])
        assert profiler.frequency("x") == 0

    def test_remove_unknown_registers_at_minus_one(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("y", False)])
        assert profiler.frequency("y") == -1
        assert profiler.least().frequency == -1
        assert profiler.mode().frequency == -1

    def test_strict_remove_unknown_registers_nothing(self, open_universe):
        profiler = open_universe(strict=True)
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest([("never-seen", False)])
        assert "never-seen" not in profiler
        assert len(profiler) == 0

    def test_strict_remove_at_zero_raises(self, open_universe):
        profiler = open_universe(strict=True)
        profiler.ingest([("x", True)])
        profiler.ingest([("x", False)])
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest([("x", False)])

    def test_strict_rejected_batch_registers_nothing(self, open_universe):
        profiler = open_universe(strict=True)
        profiler.ingest([("seen", True)])
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest([("brand_new", +1), ("never_seen", -1)])
        assert len(profiler) == 1
        assert "brand_new" not in profiler
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest([("other_new", +1), ("seen", -2)])
        assert len(profiler) == 1
        assert profiler.frequency("seen") == 1

    def test_error_precedence(self):
        # Never-seen strict removal beats capacity overflow beats a
        # known-key underflow, whatever their order in the batch.
        profiler = Profiler.open(2, backend="flat", keys="hashable",
                                 strict=True)
        profiler.ingest([("a", 1)])
        with pytest.raises(FrequencyUnderflowError, match="never-seen"):
            profiler.ingest([("a", -5), ("b", 1), ("c", 1), ("ghost", -1)])
        with pytest.raises(CapacityError):
            profiler.ingest([("a", -5), ("b", 1), ("c", 1)])
        with pytest.raises(FrequencyUnderflowError, match="would go"):
            profiler.ingest([("a", -5), ("b", 1)])
        assert len(profiler) == 1


class TestPhantomsNeverNamedOrCounted:
    def test_phantoms_exist(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 1)])
        assert _phantoms(profiler) > 0

    def test_mode_ignores_phantoms(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", True)])
        assert profiler.mode() == ModeResult(1, 1, "a")

    def test_mode_at_zero_with_ties(self, open_universe):
        profiler = open_universe()
        profiler.register("a")
        profiler.register("b")
        result = profiler.mode()
        assert (result.frequency, result.count) == (0, 2)
        assert result.example in ("a", "b")
        assert profiler.max_frequency() == 0

    def test_mode_all_negative(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", -1), ("b", -1)])
        result = profiler.mode()
        assert (result.frequency, result.count) == (-1, 2)
        assert profiler.max_frequency() == -1

    def test_least_skips_phantom_zero_block(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 2)])
        assert profiler.least() == ModeResult(2, 1, "a")
        assert profiler.min_frequency() == 2

    def test_least_zero_with_real_zeros(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 1)])
        profiler.register("b")
        assert profiler.least() == ModeResult(0, 1, "b")

    def test_empty_raises(self, open_universe):
        profiler = open_universe()
        for query in (profiler.mode, profiler.least, profiler.median_frequency):
            with pytest.raises(EmptyProfileError):
                query()
        with pytest.raises(EmptyProfileError):
            profiler.quantile(0.5)

    def test_median_over_registered_only(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("hot", 3), ("warm", 1)])
        profiler.register("cold")
        # Registered frequencies: [0, 1, 3] -> median 1.
        assert profiler.median_frequency() == 1

    def test_quantiles_over_registered_only(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("low", -1), ("mid", 1), ("high", 2)])
        assert profiler.quantile(0.0) == -1
        assert profiler.quantile(0.5) == 1
        assert profiler.quantile(1.0) == 2
        with pytest.raises(CapacityError):
            profiler.quantile(2.0)

    def test_rank_queries_over_registered_only(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("low", -1), ("high", 2)])
        profiler.register("zero")
        ranked = [profiler.object_at_rank(r) for r in range(3)]
        assert ranked == ["low", "zero", "high"]
        assert [profiler.frequency_at_rank(r) for r in range(3)] == [
            -1, 0, 2,
        ]
        with pytest.raises(CapacityError):
            profiler.object_at_rank(3)
        with pytest.raises(IndexError):
            profiler.frequency_at_rank(3)
        assert profiler.kth_most_frequent(2) == ("zero", 0)

    def test_top_k_excludes_phantoms(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 1), ("z", -1)])
        profiler.register("b")
        assert profiler.top_k(10) == [("a", 1), ("b", 0), ("z", -1)]
        assert profiler.top_k(2) == [("a", 1), ("b", 0)]
        with pytest.raises(CapacityError):
            profiler.top_k(-1)

    def test_bottom_k_excludes_phantoms(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 1)])
        profiler.register("b")
        assert profiler.bottom_k(10) == [("b", 0), ("a", 1)]
        with pytest.raises(CapacityError):
            profiler.bottom_k(-1)

    def test_histogram_and_support_subtract_phantoms(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 1)])
        assert profiler.histogram() == [(1, 1)]
        assert profiler.support(0) == 0
        profiler.register("b")
        assert profiler.histogram() == [(0, 1), (1, 1)]
        assert profiler.support(0) == 1
        assert profiler.support(1) == 1
        assert profiler.support(5) == 0
        assert profiler.active_count == 1

    def test_objects_with_frequency_filters_phantoms(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 1)])
        profiler.register("b")
        assert profiler.objects_with_frequency(0) == ["b"]
        assert profiler.objects_with_frequency(1) == ["a"]
        assert profiler.objects_with_frequency(0, limit=0) == []
        with pytest.raises(CapacityError):
            profiler.objects_with_frequency(0, limit=-1)

    def test_majority_and_heavy_hitters(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("big", 3), ("small", 1)])
        assert profiler.majority() == "big"
        assert profiler.heavy_hitters(0.5) == [("big", 3)]
        assert open_universe().majority() is None

    def test_iter_sorted_ascending(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 2), ("b", 1)])
        profiler.register("c")
        assert list(profiler.iter_sorted()) == [
            ("c", 0), ("b", 1), ("a", 2),
        ]

    def test_fused_plan_matches_standalone(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 2), ("b", -1)])
        profiler.register("c")
        result = profiler.evaluate(
            Query.mode(), Query.least(), Query.top_k(5), Query.histogram(),
            Query.median(), Query.support(0), Query.active_count(),
        )
        assert result["mode"] == profiler.mode()
        assert result["least"] == profiler.least()
        assert result["top_k"] == profiler.top_k(5)
        assert result["histogram"] == [(-1, 1), (0, 1), (2, 1)]
        assert result["median"] == 0
        assert result["support"] == 1
        assert result["active_count"] == 2

    def test_bounded_slots_never_collide_with_int_keys(self):
        # Before phantoms were skipped, an unclaimed slot reported its
        # dense id: top_k(4) named key 3 twice and frequency 0 named
        # two keys no one had registered.
        profiler = Profiler.open(4, backend="flat", keys="hashable")
        profiler.ingest([("a", 2), (3, -1)])
        assert profiler.top_k(4) == [("a", 2), (3, -1)]
        assert profiler.objects_with_frequency(0) == []
        assert profiler.bottom_k(4) == [(3, -1), ("a", 2)]
        assert profiler.histogram() == [(-1, 1), (2, 1)]
        assert profiler.support(0) == 0
        assert list(profiler.iter_sorted()) == [(3, -1), ("a", 2)]
        assert profiler.frequencies() == [2, -1]


class TestOrderStatisticsNeverWalkBlocks:
    @pytest.mark.parametrize("backend", ["flat", "exact"])
    def test_mode_median_quantile_are_o1(self, monkeypatch, backend):
        profiler = Profiler.open(keys="hashable", backend=backend)
        profiler.ingest([(f"k{i}", i % 5 - 2) for i in range(50)])
        profiler.register("zero")
        assert _phantoms(profiler) > 0

        def walk(*_args):
            raise AssertionError("block walk")

        for reader in (_FlatBlockReader, BlockSet):
            for name in ("iter_blocks", "iter_blocks_desc",
                         "block_for_frequency"):
                monkeypatch.setattr(reader, name, walk)
        assert profiler.median_frequency() == 0
        assert profiler.quantile(0.0) == -2
        assert profiler.quantile(1.0) == 2
        assert profiler.mode().frequency == 2
        assert profiler.least().frequency == -2
        assert profiler.max_frequency() == 2
        assert profiler.frequency_at_rank(0) == -2


class TestSnapshot:
    def test_snapshot_logical_universe(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 2)])
        profiler.register("b")
        snap = profiler.snapshot()
        assert snap.capacity == 2
        assert sorted(snap.frequencies()) == [0, 2]
        assert snap.total == 2

    def test_snapshot_dense_ids_follow_the_catalog(self, open_universe):
        profiler = open_universe()
        profiler.ingest([("a", 1), ("b", 3)])
        catalog = profiler.to_state()["catalog"]
        assert catalog[profiler.snapshot().mode().example] == "b"
        assert dict(zip(catalog, profiler.frequencies())) == {
            "a": 1, "b": 3,
        }


class TestCheckpoints:
    def test_grown_universe_round_trips(self, tmp_path, open_universe):
        profiler = open_universe()
        profiler.ingest([(f"k{i}", i % 4 - 1) for i in range(37)])
        profiler.register(("t", 1))
        path = tmp_path / "grown.json"
        profiler.save(path)
        restored = Profiler.load(path)
        plan = (Query.histogram(), Query.median(), Query.support(0),
                Query.total(), Query.active_count())
        assert restored.evaluate(*plan) == profiler.evaluate(*plan)
        assert restored.capacity == profiler.capacity
        assert json.loads(json.dumps(restored.to_state())) == json.loads(
            path.read_text()
        )
        restored.ingest([("late", 1)])
        assert restored.frequency("late") == 1
        assert len(restored) == len(profiler) + 1

    def test_growable_state_declares_no_capacity(self):
        profiler = Profiler.open(keys="hashable")
        profiler.ingest([("a", 1)])
        state = profiler.to_state()
        assert state["capacity"] is None
        assert state["catalog"] == ["a"]
        assert state["profile"]["capacity"] == 8

    def test_legacy_exact_hashable_checkpoint_loads(self):
        states = json.loads(LEGACY_STATES.read_text())
        profiler = Profiler.from_state(states["growable"])
        assert profiler.backend_name == "exact"
        assert len(profiler) == 6 and profiler.capacity == 6
        assert profiler.frequency("ada") == 3
        assert profiler.frequency(("t", 1)) == 2
        assert profiler.frequency(7) == -1
        assert profiler.histogram() == [
            (-1, 1), (0, 1), (1, 1), (2, 1), (3, 2),
        ]
        assert profiler.least() == ModeResult(-1, 1, 7)
        assert profiler.objects_with_frequency(0) == ["cyd"]
        profiler.ingest([(f"new{i}", 1) for i in range(5)])
        assert len(profiler) == 11
        audit_profile(profiler.backend)

    def test_legacy_state_grown_past_its_hint_is_refused(self):
        states = json.loads(LEGACY_STATES.read_text())
        with pytest.raises(CheckpointError):
            Profiler.from_state(states["grown_past_hint"])

    def test_bounded_state_core_must_match_capacity(self):
        profiler = Profiler.open(8, backend="flat", keys="hashable")
        profiler.ingest([("a", 1)])
        state = profiler.to_state()
        state["capacity"] = 16
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_growable_phantom_mass_rejected(self):
        profiler = Profiler.open(keys="hashable")
        profiler.ingest([("a", 1), ("b", 1)])
        state = profiler.to_state()
        state["catalog"] = ["a"]  # "b"'s mass now sits in a phantom
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_core_smaller_than_catalog_rejected(self):
        profiler = Profiler.open(keys="hashable")
        profiler.ingest([("a", 1)])
        state = profiler.to_state()
        state["catalog"] = [f"k{i}" for i in range(9)]
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_growable_catalog_is_required(self):
        profiler = Profiler.open(keys="hashable")
        state = profiler.to_state()
        state["catalog"] = None
        with pytest.raises(CheckpointError):
            Profiler.from_state(state)

    def test_core_type_follows_backend(self):
        profiler = Profiler.open(keys="hashable")
        profiler.ingest([("a", 1)])
        restored = Profiler.from_state(profiler.to_state())
        assert isinstance(restored.backend, FlatProfile)
