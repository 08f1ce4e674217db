"""Unit tests for the engine layer: ShardedProfiler.

Batched ingestion and checkpoints of a sharded profile go through the
facade (``Profiler.open(m, shards=N)``); tests/unit/test_api_facade.py
covers them.
"""

import random

import pytest

from repro.core.profile import SProfile
from repro.engine.sharding import ShardedProfiler
from repro.errors import (
    CapacityError,
    EmptyProfileError,
    FrequencyUnderflowError,
)


def _random_pair(capacity, n_shards, n_events, seed=0, **kwargs):
    """(ShardedProfiler, SProfile) fed the same random event stream."""
    rng = random.Random(seed)
    sharded = ShardedProfiler(capacity, n_shards=n_shards, **kwargs)
    single = SProfile(capacity, **kwargs)
    for _ in range(n_events):
        x = rng.randrange(capacity)
        is_add = rng.random() < 0.7
        sharded.update(x, is_add)
        single.update(x, is_add)
    return sharded, single


class TestShardedPartition:
    def test_shard_capacities_tile_the_universe(self):
        profiler = ShardedProfiler(10, n_shards=3)
        assert [s.capacity for s in profiler.shards] == [4, 3, 3]
        assert profiler.capacity == 10

    def test_shard_of(self):
        profiler = ShardedProfiler(10, n_shards=3)
        assert [profiler.shard_of(x) for x in range(6)] == [0, 1, 2, 0, 1, 2]
        with pytest.raises(CapacityError):
            profiler.shard_of(10)

    def test_more_shards_than_objects(self):
        profiler = ShardedProfiler(2, n_shards=8)
        profiler.add(0)
        profiler.add(1)
        assert profiler.max_frequency() == 1
        assert profiler.frequencies() == [1, 1]

    def test_bad_construction(self):
        with pytest.raises(CapacityError):
            ShardedProfiler(-1)
        with pytest.raises(CapacityError):
            ShardedProfiler(4, n_shards=0)

    def test_empty_universe_queries_raise(self):
        profiler = ShardedProfiler(0, n_shards=2)
        with pytest.raises(EmptyProfileError):
            profiler.mode()
        with pytest.raises(EmptyProfileError):
            profiler.median_frequency()


class TestShardedQueries:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8])
    def test_agrees_with_single_profile(self, n_shards):
        sharded, single = _random_pair(50, n_shards, 600, seed=n_shards)
        freqs = single.frequencies()
        sorted_freqs = sorted(freqs)
        assert sharded.frequencies() == freqs
        assert sharded.total == single.total
        assert sharded.n_events == single.n_events
        assert sharded.active_count == single.active_count
        assert sharded.max_frequency() == max(freqs)
        assert sharded.min_frequency() == min(freqs)
        assert sharded.median_frequency() == sorted_freqs[(50 - 1) // 2]
        assert sharded.histogram() == single.histogram()
        top = sharded.top_k(10)
        assert [e.frequency for e in top] == sorted_freqs[::-1][:10]
        assert all(freqs[e.obj] == e.frequency for e in top)
        sharded.audit()

    def test_mode_merges_tie_counts_across_shards(self):
        profiler = ShardedProfiler(6, n_shards=3)
        profiler.add_many([0, 1, 2])  # one object per shard at freq 1
        mode = profiler.mode()
        assert mode.frequency == 1
        assert mode.count == 3
        assert mode.example in (0, 1, 2)

    def test_least_merges_tie_counts_across_shards(self):
        profiler = ShardedProfiler(4, n_shards=2)
        profiler.add_many([0, 1, 2, 3])
        least = profiler.least()
        assert least.frequency == 1
        assert least.count == 4

    def test_kth_and_rank_queries(self):
        profiler = ShardedProfiler(5, n_shards=2)
        profiler.apply({0: 5, 1: 3, 2: 1})
        assert profiler.kth_most_frequent(1).obj == 0
        assert profiler.kth_most_frequent(2).obj == 1
        assert profiler.frequency_at_rank(4) == 5
        assert profiler.frequency_at_rank(0) == 0
        assert profiler.quantile(1.0) == 5
        with pytest.raises(CapacityError):
            profiler.kth_most_frequent(6)
        with pytest.raises(CapacityError):
            profiler.frequency_at_rank(5)

    def test_support_and_objects_with_frequency(self):
        profiler = ShardedProfiler(8, n_shards=3)
        profiler.apply({0: 2, 1: 2, 5: 2, 7: 1})
        assert profiler.support(2) == 3
        assert sorted(profiler.objects_with_frequency(2)) == [0, 1, 5]
        assert len(profiler.objects_with_frequency(2, limit=2)) == 2
        assert profiler.support(9) == 0

    def test_heavy_hitters_use_global_total(self):
        profiler = ShardedProfiler(6, n_shards=2)
        profiler.apply({0: 8, 1: 1, 2: 1})
        hitters = profiler.heavy_hitters(0.5)
        assert [(e.obj, e.frequency) for e in hitters] == [(0, 8)]

    def test_majority(self):
        profiler = ShardedProfiler(4, n_shards=2)
        profiler.apply({1: 5, 2: 1})
        assert profiler.majority() == 1
        profiler.apply({2: 4})
        assert profiler.majority() is None

    def test_iter_sorted_is_globally_ascending(self):
        sharded, single = _random_pair(30, 4, 300, seed=9)
        walked = [e.frequency for e in sharded.iter_sorted()]
        assert walked == sorted(single.frequencies())

    def test_snapshot_matches_merged_state(self):
        sharded, single = _random_pair(30, 4, 300, seed=4)
        snap = sharded.snapshot()
        assert sorted(snap.frequencies()) == sorted(single.frequencies())
        assert snap.total == single.total
        assert snap.n_events == single.n_events


class TestShardedUpdates:
    def test_strict_underflow_routes_to_shard(self):
        profiler = ShardedProfiler(6, n_shards=3, allow_negative=False)
        profiler.add(4)
        profiler.remove(4)
        with pytest.raises(FrequencyUnderflowError):
            profiler.remove(4)

    def test_strict_batch_reject_leaves_every_shard_untouched(self):
        profiler = ShardedProfiler(6, n_shards=3, allow_negative=False)
        profiler.add_many([0, 1, 2, 3, 4, 5])
        before = profiler.frequencies()
        # Key 4's shard would underflow; keys on other shards are legal.
        with pytest.raises(FrequencyUnderflowError):
            profiler.remove_many([0, 1, 4, 4])
        assert profiler.frequencies() == before
        profiler.audit()

    def test_consume_arrays_mismatch(self):
        profiler = ShardedProfiler(4, n_shards=2)
        with pytest.raises(CapacityError):
            profiler.consume_arrays([1, 2], [True])

    def test_clear(self):
        profiler = ShardedProfiler(6, n_shards=2)
        profiler.add_many([0, 1, 2, 3])
        profiler.clear()
        assert profiler.total == 0
        assert profiler.frequencies() == [0] * 6
        assert profiler.n_events == 0

    def test_batch_and_per_event_agree(self):
        batched = ShardedProfiler(20, n_shards=3)
        looped = ShardedProfiler(20, n_shards=3)
        xs = [1, 1, 19, 4, 4, 4, 0]
        batched.add_many(xs)
        for x in xs:
            looped.add(x)
        batched.remove_many([4, 1])
        looped.remove(4)
        looped.remove(1)
        assert batched.frequencies() == looped.frequencies()
        batched.audit()


class TestFlatShardCores:
    def test_flat_cores_match_sprofile_cores(self):
        rng = random.Random(9)
        flat_cores = ShardedProfiler(30, n_shards=4, core="flat")
        block_cores = ShardedProfiler(30, n_shards=4, core="sprofile")
        for _ in range(800):
            x = rng.randrange(30)
            is_add = rng.random() < 0.7
            flat_cores.update(x, is_add)
            block_cores.update(x, is_add)
        assert flat_cores.frequencies() == block_cores.frequencies()
        assert flat_cores.histogram() == block_cores.histogram()
        assert flat_cores.mode() == block_cores.mode()
        assert flat_cores.median_frequency() == block_cores.median_frequency()
        assert flat_cores.top_k(7) == block_cores.top_k(7)
        flat_cores.audit()

    def test_flat_cores_batched_paths(self):
        rng = random.Random(4)
        flat_cores = ShardedProfiler(24, n_shards=3, core="flat")
        single = SProfile(24)
        for _ in range(6):
            batch = [rng.randrange(24) for _ in range(rng.randrange(0, 120))]
            assert flat_cores.add_many(batch) == single.add_many(batch)
            deltas = {
                rng.randrange(24): rng.randrange(-3, 4) for _ in range(5)
            }
            assert flat_cores.apply(dict(deltas)) == single.apply(
                dict(deltas)
            )
        assert flat_cores.frequencies() == single.frequencies()
        flat_cores.audit()

    def test_numpy_batch_split(self):
        np = pytest.importorskip("numpy")
        arr = np.array([0, 1, 2, 3, 4, 5, 5, 5], dtype=np.int64)
        for core in ("flat", "sprofile"):
            sharded = ShardedProfiler(6, n_shards=2, core=core)
            assert sharded.add_many(arr) == 8
            assert sharded.frequencies() == [1, 1, 1, 1, 1, 3]
            assert sharded.remove_many(arr[:4]) == 4
            assert sharded.frequencies() == [0, 0, 0, 0, 1, 3]
        bad = np.array([0, 99])
        with pytest.raises(CapacityError):
            ShardedProfiler(6, n_shards=2).add_many(bad)

    def test_strict_remove_many_stays_all_or_nothing(self):
        sharded = ShardedProfiler(
            8, n_shards=2, core="flat", allow_negative=False
        )
        sharded.add_many([0, 1])
        with pytest.raises(FrequencyUnderflowError):
            sharded.remove_many([0, 1, 1])
        assert sharded.frequencies()[:2] == [1, 1]

    def test_core_validation(self):
        with pytest.raises(CapacityError):
            ShardedProfiler(8, core="bogus")
        with pytest.raises(CapacityError):
            ShardedProfiler(8, core="flat", track_freq_index=True)
        assert ShardedProfiler(8, core="flat").core == "flat"
        assert ShardedProfiler(8).core == "sprofile"
