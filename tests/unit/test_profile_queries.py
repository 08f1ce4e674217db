"""Unit tests for the query surface (mode, top-k, quantiles, ...)."""

import pytest

from repro.core.profile import SProfile
from repro.core.queries import ModeResult, TopEntry
from repro.errors import CapacityError, EmptyProfileError


class TestModeAndLeast:
    def test_mode(self, small_profile):
        result = small_profile.mode()
        assert result == ModeResult(frequency=3, count=1, example=1)
        assert result.is_unique() is True

    def test_least(self, small_profile):
        result = small_profile.least()
        assert result == ModeResult(frequency=-1, count=1, example=4)

    def test_mode_with_ties(self):
        profile = SProfile(4)
        profile.add(0)
        profile.add(1)
        result = profile.mode()
        assert result.frequency == 1
        assert result.count == 2
        assert result.example in (0, 1)
        assert result.is_unique() is False

    def test_mode_objects(self):
        profile = SProfile(4)
        profile.add(0)
        profile.add(1)
        assert sorted(profile.mode_objects()) == [0, 1]
        assert len(profile.mode_objects(limit=1)) == 1

    def test_least_objects(self, small_profile):
        assert small_profile.least_objects() == [4]

    def test_mode_objects_negative_limit(self, small_profile):
        with pytest.raises(CapacityError):
            small_profile.mode_objects(limit=-1)

    def test_all_zero_mode(self):
        profile = SProfile(3)
        result = profile.mode()
        assert result.frequency == 0
        assert result.count == 3

    def test_empty_profile_raises(self):
        profile = SProfile(0)
        with pytest.raises(EmptyProfileError):
            profile.mode()
        with pytest.raises(EmptyProfileError):
            profile.least()

    def test_unknown_count_is_unique(self):
        assert ModeResult(1, None, 0).is_unique() is None


class TestExtremeFrequencies:
    def test_max_min(self, small_profile):
        assert small_profile.max_frequency() == 3
        assert small_profile.min_frequency() == -1

    def test_empty_raises(self):
        with pytest.raises(EmptyProfileError):
            SProfile(0).max_frequency()
        with pytest.raises(EmptyProfileError):
            SProfile(0).min_frequency()


class TestTopK:
    def test_top_k_descending(self, small_profile):
        top = small_profile.top_k(3)
        assert top[0] == TopEntry(1, 3)
        assert {entry.frequency for entry in top[1:]} == {1}

    def test_top_k_zero(self, small_profile):
        assert small_profile.top_k(0) == []

    def test_top_k_clamps_to_capacity(self, small_profile):
        assert len(small_profile.top_k(100)) == 8

    def test_top_k_negative_rejected(self, small_profile):
        with pytest.raises(CapacityError):
            small_profile.top_k(-1)

    def test_bottom_k_ascending(self, small_profile):
        bottom = small_profile.bottom_k(2)
        assert bottom[0] == TopEntry(4, -1)
        assert bottom[1].frequency == 0

    def test_bottom_k_full(self, small_profile):
        freqs = [entry.frequency for entry in small_profile.bottom_k(8)]
        assert freqs == sorted(small_profile.frequencies())

    def test_top_k_covers_whole_array_sorted(self, small_profile):
        freqs = [entry.frequency for entry in small_profile.top_k(8)]
        assert freqs == sorted(small_profile.frequencies(), reverse=True)

    def test_kth_most_frequent(self, small_profile):
        assert small_profile.kth_most_frequent(1) == TopEntry(1, 3)
        assert small_profile.kth_most_frequent(8).frequency == -1

    def test_kth_bounds(self, small_profile):
        with pytest.raises(CapacityError):
            small_profile.kth_most_frequent(0)
        with pytest.raises(CapacityError):
            small_profile.kth_most_frequent(9)


class TestRankQueries:
    def test_rank_and_object_roundtrip(self, small_profile):
        for obj in range(8):
            rank = small_profile.rank_of(obj)
            assert small_profile.object_at_rank(rank) == obj

    def test_frequency_at_rank_is_sorted(self, small_profile):
        freqs = [small_profile.frequency_at_rank(r) for r in range(8)]
        assert freqs == sorted(freqs)

    def test_rank_of_bounds(self, small_profile):
        with pytest.raises(CapacityError):
            small_profile.rank_of(8)

    def test_object_at_rank_bounds(self, small_profile):
        with pytest.raises(CapacityError):
            small_profile.object_at_rank(8)
        with pytest.raises(CapacityError):
            small_profile.object_at_rank(-1)


class TestQuantiles:
    def test_median(self, small_profile):
        sorted_freqs = sorted(small_profile.frequencies())
        assert small_profile.median_frequency() == sorted_freqs[3]

    def test_quantile_endpoints(self, small_profile):
        assert small_profile.quantile(0.0) == small_profile.min_frequency()
        assert small_profile.quantile(1.0) == small_profile.max_frequency()

    def test_quantile_interior(self, small_profile):
        sorted_freqs = sorted(small_profile.frequencies())
        assert small_profile.quantile(0.5) == sorted_freqs[int(0.5 * 7)]

    def test_quantile_out_of_range(self, small_profile):
        with pytest.raises(CapacityError):
            small_profile.quantile(1.5)
        with pytest.raises(CapacityError):
            small_profile.quantile(-0.1)

    def test_empty_raises(self):
        with pytest.raises(EmptyProfileError):
            SProfile(0).median_frequency()
        with pytest.raises(EmptyProfileError):
            SProfile(0).quantile(0.5)


class TestQuantileEdgeSemantics:
    """quantile_rank is the single shared definition: q=0 names the
    minimum, q=1 the maximum (both exactly), interior quantiles use the
    lower nearest rank, and every backend agrees — including on empty
    and negative-frequency profiles."""

    def _backends(self, capacity):
        from repro.api import Profiler
        from repro.baselines.bucket import BucketProfiler
        from repro.baselines.tree_profiler import TreeProfiler
        from repro.core.flat import FlatProfile

        hashable = Profiler.open(keys="hashable")
        for x in range(capacity):
            hashable.register(x)
        return [
            SProfile(capacity),
            FlatProfile(capacity),
            BucketProfiler(capacity),
            TreeProfiler(capacity, structure="fenwick"),
            hashable,
        ]

    def test_rank_helper_edges(self):
        from repro.core.queries import quantile_rank

        assert quantile_rank(0.0, 5) == 0
        assert quantile_rank(1.0, 5) == 4
        # q=1.0 is exact even where floor(q * (size-1)) could round.
        assert quantile_rank(1.0, 10**9) == 10**9 - 1
        assert quantile_rank(0.5, 8) == 3  # lower nearest rank
        with pytest.raises(CapacityError):
            quantile_rank(1.1, 5)
        with pytest.raises(EmptyProfileError):
            quantile_rank(0.5, 0)

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.999, 1.0])
    def test_all_backends_agree_on_negative_profile(self, q):
        capacity = 11
        deltas = {0: -3, 1: -1, 2: 4, 3: 1, 7: -2, 9: 6}
        answers = set()
        for profiler in self._backends(capacity):
            # The hashable facade's write verb is ingest().
            (getattr(profiler, "apply", None) or profiler.ingest)(deltas)
            answers.add(profiler.quantile(q))
        assert len(answers) == 1, answers

    def test_endpoints_equal_extremes_under_negatives(self):
        profile = SProfile(4)
        profile.apply({0: -5, 1: 2})
        assert profile.quantile(0.0) == profile.min_frequency() == -5
        assert profile.quantile(1.0) == profile.max_frequency() == 2

    def test_empty_profiles_raise_everywhere(self):
        from repro.baselines.bucket import BucketProfiler
        from repro.core.flat import FlatProfile

        for profiler in (
            SProfile(0),
            FlatProfile(0),
            BucketProfiler(0),
        ):
            for q in (0.0, 0.5, 1.0):
                with pytest.raises(EmptyProfileError):
                    profiler.quantile(q)

    def test_out_of_range_beats_emptiness_reporting(self):
        # A bad q on an empty profile reports emptiness (capacity is
        # checked first, as before the helper existed).
        with pytest.raises(EmptyProfileError):
            SProfile(0).quantile(2.0)
        with pytest.raises(CapacityError):
            SProfile(1).quantile(2.0)

    def test_singleton_profile(self):
        profile = SProfile(1)
        profile.add(0)
        for q in (0.0, 0.5, 1.0):
            assert profile.quantile(q) == 1


class TestDistribution:
    def test_histogram(self, small_profile):
        assert small_profile.histogram() == [(-1, 1), (0, 4), (1, 2), (3, 1)]

    def test_support(self, small_profile):
        assert small_profile.support(0) == 4
        assert small_profile.support(3) == 1
        assert small_profile.support(2) == 0
        assert small_profile.support(-1) == 1

    @pytest.mark.parametrize("indexed", [True, False])
    def test_support_indexed_matches(self, indexed):
        profile = SProfile(6, track_freq_index=indexed)
        for x in (0, 0, 1, 2, 2, 2):
            profile.add(x)
        assert profile.support(0) == 3
        assert profile.support(1) == 1
        assert profile.support(2) == 1
        assert profile.support(3) == 1

    def test_objects_with_frequency(self, small_profile):
        assert sorted(small_profile.objects_with_frequency(1)) == [2, 3]
        assert small_profile.objects_with_frequency(99) == []
        assert len(small_profile.objects_with_frequency(0, limit=2)) == 2

    def test_iter_sorted(self, small_profile):
        entries = list(small_profile.iter_sorted())
        assert len(entries) == 8
        freqs = [entry.frequency for entry in entries]
        assert freqs == sorted(freqs)
        assert {entry.obj for entry in entries} == set(range(8))


class TestMajority:
    def test_majority_present(self):
        profile = SProfile(3)
        for _ in range(5):
            profile.add(0)
        profile.add(1)
        assert profile.majority() == 0

    def test_no_majority(self):
        profile = SProfile(3)
        profile.add(0)
        profile.add(1)
        assert profile.majority() is None

    def test_empty_mass(self):
        assert SProfile(3).majority() is None

    def test_exact_half_is_not_majority(self):
        profile = SProfile(3)
        profile.add(0)
        profile.add(0)
        profile.add(1)
        profile.add(2)
        assert profile.majority() is None


class TestDerivedStats:
    def test_total_and_counts(self, small_profile):
        assert small_profile.total == 4
        assert small_profile.n_events == 6
        assert small_profile.active_count == 4

    def test_mean(self, small_profile):
        assert small_profile.mean_frequency == pytest.approx(0.5)

    def test_variance(self, small_profile):
        freqs = small_profile.frequencies()
        mean = sum(freqs) / len(freqs)
        expected = sum((f - mean) ** 2 for f in freqs) / len(freqs)
        assert small_profile.frequency_variance == pytest.approx(expected)

    def test_variance_uniform_is_zero(self):
        profile = SProfile(5)
        for x in range(5):
            profile.add(x)
        assert profile.frequency_variance == 0.0

    def test_empty_stats(self):
        profile = SProfile(0)
        assert profile.mean_frequency == 0.0
        assert profile.frequency_variance == 0.0
        assert profile.total == 0
