"""Unit tests for bulk construction, growth, copy, clear and the
batch ingestion paths (add_many / remove_many / apply)."""

import pytest

from repro.core.profile import SProfile
from repro.core.validation import audit_profile
from repro.errors import CapacityError, FrequencyUnderflowError


class TestFromFrequencies:
    def test_simple(self):
        profile = SProfile.from_frequencies([3, 0, 1, 0])
        assert profile.frequencies() == [3, 0, 1, 0]
        assert profile.total == 4
        assert profile.mode().example == 0
        audit_profile(profile)

    def test_with_negatives(self):
        profile = SProfile.from_frequencies([-2, 5, 0])
        assert profile.min_frequency() == -2
        assert profile.max_frequency() == 5
        audit_profile(profile)

    def test_strict_rejects_negatives(self):
        with pytest.raises(FrequencyUnderflowError):
            SProfile.from_frequencies([1, -1], allow_negative=False)

    def test_empty(self):
        profile = SProfile.from_frequencies([])
        assert profile.capacity == 0

    def test_all_equal(self):
        profile = SProfile.from_frequencies([7, 7, 7])
        assert profile.block_count == 1
        assert profile.histogram() == [(7, 3)]

    def test_updates_after_bulk_build(self):
        profile = SProfile.from_frequencies([3, 0, 1, 0])
        profile.add(1)
        profile.remove(0)
        assert profile.frequencies() == [2, 1, 1, 0]
        assert profile.total == 4
        audit_profile(profile)

    def test_freq_index_enabled(self):
        profile = SProfile.from_frequencies([5, 5, 2], track_freq_index=True)
        assert profile.support(5) == 2
        profile.add(2)
        audit_profile(profile)

    def test_event_counters_start_clean(self):
        profile = SProfile.from_frequencies([1, 2, 3])
        assert profile.n_events == 0
        assert profile.total == 6


class TestGrow:
    def test_grow_from_empty(self):
        profile = SProfile(0)
        profile.grow(4)
        assert profile.capacity == 4
        assert profile.frequencies() == [0, 0, 0, 0]
        audit_profile(profile)

    def test_grow_all_zero(self):
        profile = SProfile(2)
        profile.grow(3)
        assert profile.capacity == 5
        assert profile.block_count == 1
        audit_profile(profile)

    def test_grow_with_positive_frequencies(self):
        profile = SProfile(3)
        profile.add(0)
        profile.add(0)
        profile.add(1)
        profile.grow(2)
        assert profile.capacity == 5
        assert profile.frequencies() == [2, 1, 0, 0, 0]
        audit_profile(profile)

    def test_grow_with_negative_frequencies(self):
        profile = SProfile(3)
        profile.remove(0)
        profile.add(1)
        profile.grow(2)
        assert profile.frequencies() == [-1, 1, 0, 0, 0]
        assert profile.min_frequency() == -1
        # New zeros must sit between the negatives and the positives.
        assert profile.frequency_at_rank(0) == -1
        assert profile.frequency_at_rank(1) == 0
        audit_profile(profile)

    def test_grow_when_no_zero_block_exists(self):
        profile = SProfile(2)
        profile.add(0)
        profile.add(1)  # all objects at 1; no zero block
        profile.grow(2)
        assert sorted(profile.frequencies()) == [0, 0, 1, 1]
        audit_profile(profile)

    def test_grow_when_all_negative(self):
        profile = SProfile(2)
        profile.remove(0)
        profile.remove(1)
        profile.grow(1)
        assert sorted(profile.frequencies()) == [-1, -1, 0]
        audit_profile(profile)

    def test_grow_preserves_totals_and_events(self):
        profile = SProfile(3)
        profile.add(0)
        profile.remove(1)
        events_before = profile.n_events
        total_before = profile.total
        profile.grow(5)
        assert profile.n_events == events_before
        assert profile.total == total_before

    def test_grow_zero_rejected(self):
        profile = SProfile(3)
        with pytest.raises(CapacityError):
            profile.grow(0)
        with pytest.raises(CapacityError):
            profile.grow(-2)

    def test_updates_work_after_grow(self):
        profile = SProfile(2)
        profile.add(0)
        profile.grow(2)
        profile.add(3)
        profile.remove(1)
        assert profile.frequencies() == [1, -1, 0, 1]
        audit_profile(profile)


class TestCopyAndClear:
    def test_copy_is_independent(self, small_profile):
        clone = small_profile.copy()
        clone.add(0)
        assert small_profile.frequency(0) == 0
        assert clone.frequency(0) == 1
        audit_profile(clone)
        audit_profile(small_profile)

    def test_copy_preserves_everything(self, small_profile):
        clone = small_profile.copy()
        assert clone.frequencies() == small_profile.frequencies()
        assert clone.total == small_profile.total
        assert clone.n_adds == small_profile.n_adds
        assert clone.n_removes == small_profile.n_removes
        assert clone.allow_negative == small_profile.allow_negative

    def test_clear(self, small_profile):
        small_profile.clear()
        assert small_profile.frequencies() == [0] * 8
        assert small_profile.total == 0
        assert small_profile.n_events == 0
        audit_profile(small_profile)

    def test_clear_keeps_settings(self):
        profile = SProfile(4, allow_negative=False, track_freq_index=True)
        profile.add(1)
        profile.clear()
        assert not profile.allow_negative
        assert profile.blocks.tracks_freq_index
        with pytest.raises(FrequencyUnderflowError):
            profile.remove(0)


# Capacity 4 forces the rebuild path (any nonempty batch names >= m/2
# keys is easy to hit), capacity 64 forces the climb path for the same
# batches; the two strategies must be observably identical.
BATCH_CAPACITIES = (4, 64)


class TestAddMany:
    @pytest.mark.parametrize("capacity", BATCH_CAPACITIES)
    def test_matches_per_event_loop(self, capacity):
        xs = [1, 1, 3, 1, 2, 3, 1]
        batch = SProfile(capacity)
        assert batch.add_many(xs) == 7
        loop = SProfile(capacity)
        for x in xs:
            loop.add(x)
        assert batch.frequencies() == loop.frequencies()
        assert batch.total == loop.total
        assert batch.n_adds == 7
        audit_profile(batch)

    @pytest.mark.parametrize("capacity", BATCH_CAPACITIES)
    def test_accepts_numpy_arrays(self, capacity):
        np = pytest.importorskip("numpy")
        profile = SProfile(capacity)
        profile.add_many(np.asarray([0, 0, 2], dtype=np.int64))
        assert profile.frequency(0) == 2
        assert profile.frequency(2) == 1
        audit_profile(profile)

    def test_empty_batch(self):
        profile = SProfile(4)
        assert profile.add_many([]) == 0
        assert profile.n_events == 0

    @pytest.mark.parametrize("capacity", BATCH_CAPACITIES)
    def test_bad_id_rejected(self, capacity):
        profile = SProfile(capacity)
        with pytest.raises(CapacityError):
            profile.add_many([0, capacity])
        with pytest.raises(CapacityError):
            profile.add_many([-1])

    def test_freq_index_stays_consistent(self):
        profile = SProfile(8, track_freq_index=True)
        profile.add_many([0] * 5 + [1] * 3 + [2] * 3 + [3])
        assert profile.support(3) == 2
        assert profile.support(5) == 1
        audit_profile(profile)

    def test_hot_key_climb(self):
        """One key hit many times: the coalesced climb, not unit steps."""
        profile = SProfile(100)
        profile.add_many([7] * 10_000)
        assert profile.frequency(7) == 10_000
        assert profile.max_frequency() == 10_000
        assert profile.block_count == 2
        audit_profile(profile)


class TestRemoveMany:
    @pytest.mark.parametrize("capacity", BATCH_CAPACITIES)
    def test_matches_per_event_loop(self, capacity):
        batch = SProfile(capacity)
        batch.add_many([0, 0, 0, 1, 1, 2])
        loop = batch.copy()
        rs = [0, 0, 1, 2, 3]
        assert batch.remove_many(rs) == 5
        for x in rs:
            loop.remove(x)
        assert batch.frequencies() == loop.frequencies()
        assert batch.n_removes == 5
        audit_profile(batch)

    @pytest.mark.parametrize("capacity", BATCH_CAPACITIES)
    def test_strict_underflow_key_untouched(self, capacity):
        profile = SProfile(capacity, allow_negative=False)
        profile.add_many([0, 0, 1])
        with pytest.raises(FrequencyUnderflowError):
            profile.remove_many([0, 0, 0])
        assert profile.frequency(0) == 2
        audit_profile(profile)

    def test_negative_mode_goes_below_zero(self):
        profile = SProfile(4)
        profile.remove_many([0, 0, 3])
        assert profile.frequencies() == [-2, 0, 0, -1]
        assert profile.min_frequency() == -2
        audit_profile(profile)

    @pytest.mark.parametrize("capacity", BATCH_CAPACITIES)
    def test_strict_reject_is_all_or_nothing(self, capacity):
        """One underflowing key poisons the batch; legal keys in the
        same batch must stay untouched too (callers may re-submit)."""
        profile = SProfile(capacity, allow_negative=False)
        profile.add_many([0, 0, 1, 2])
        before = profile.frequencies()
        with pytest.raises(FrequencyUnderflowError):
            profile.remove_many([0, 1, 2, 2, 2])
        assert profile.frequencies() == before
        with pytest.raises(FrequencyUnderflowError):
            profile.apply([(0, -1), (2, -3)])
        assert profile.frequencies() == before
        audit_profile(profile)


class TestApply:
    @pytest.mark.parametrize("capacity", BATCH_CAPACITIES)
    def test_pairs_and_mapping_agree(self, capacity):
        pairs = [(0, +3), (1, -2), (0, +1), (2, +5)]
        from_pairs = SProfile(capacity)
        from_pairs.apply(pairs)
        from_mapping = SProfile(capacity)
        from_mapping.apply({0: 4, 1: -2, 2: 5})
        assert from_pairs.frequencies() == from_mapping.frequencies()
        audit_profile(from_pairs)

    @pytest.mark.parametrize("capacity", BATCH_CAPACITIES)
    def test_cancellation_counts_net_events(self, capacity):
        profile = SProfile(capacity)
        n = profile.apply([(0, +5), (0, -5), (1, +2)])
        assert n == 2
        assert profile.n_events == 2
        assert profile.frequencies()[:2] == [0, 2]

    def test_strict_checks_net_not_order(self):
        profile = SProfile(4, allow_negative=False)
        # Sequential (0,-1) first would underflow; the net (+1) is legal.
        assert profile.apply([(0, -1), (0, +2)]) == 1
        assert profile.frequency(0) == 1
        with pytest.raises(FrequencyUnderflowError):
            profile.apply([(0, -2)])
        assert profile.frequency(0) == 1

    @pytest.mark.parametrize("capacity", BATCH_CAPACITIES)
    def test_bad_id_rejected_even_when_net_zero(self, capacity):
        profile = SProfile(capacity)
        with pytest.raises(CapacityError):
            profile.apply([(capacity, +1), (capacity, -1)])

    @pytest.mark.parametrize("allow_negative", [True, False])
    def test_direct_climb_callers_range_check(self, allow_negative):
        """The climb loops and the rebuild trust their callers' range
        check; every direct caller runs one, so a bad id mutates
        nothing."""
        profile = SProfile(6, allow_negative=allow_negative)
        profile.add_many([1, 1, 4])
        before = (profile.frequencies(), profile.n_adds, profile.n_removes)
        calls = [
            lambda: profile.add_count(6, 1),
            lambda: profile.add_count(-1, 2),
            lambda: profile.remove_count(6, 1),
            lambda: profile.remove_count(-7, 1),
            lambda: profile.add_many([1, 6]),
            lambda: profile.remove_many([1, -1]),
            # Naming half the universe or more takes the rebuild path,
            # where a negative id would index from the end.
            lambda: profile.add_many([0, 1, 2, -1]),
            lambda: profile.remove_many([0, 1, 2, -1]),
            lambda: profile.apply([(0, 1), (1, 1), (2, 1), (-1, 1)]),
        ]
        for call in calls:
            with pytest.raises(CapacityError):
                call()
            assert (
                profile.frequencies(), profile.n_adds, profile.n_removes
            ) == before
        audit_profile(profile)

    def test_add_count_uses_climb(self):
        profile = SProfile(10)
        profile.add_count(3, 1000)
        profile.remove_count(3, 999)
        assert profile.frequency(3) == 1
        assert profile.n_events == 1999
        audit_profile(profile)


class TestBaselineApplyParity:
    def test_baseline_apply_reject_is_all_or_nothing(self):
        """ProfilerBase.apply must fail atomically like SProfile.apply,
        or equivalence harnesses diverge on a failing batch."""
        from repro.baselines.bucket import BucketProfiler

        sprofile = SProfile(4, allow_negative=False)
        bucket = BucketProfiler(4, allow_negative=False)
        for p in (sprofile, bucket):
            p.apply([(0, +2), (1, +1)])
        bad = [(0, +2), (1, -3), (9, 0)]
        for p in (sprofile, bucket):
            with pytest.raises((FrequencyUnderflowError, CapacityError)):
                p.apply(bad)
        assert bucket.frequencies() == sprofile.frequencies() == [2, 1, 0, 0]

    def test_baseline_apply_matches_sprofile_on_success(self):
        from repro.baselines.bucket import BucketProfiler

        sprofile = SProfile(6)
        bucket = BucketProfiler(6)
        deltas = [(0, +3), (5, -2), (0, -1), (2, +4)]
        assert sprofile.apply(deltas) == bucket.apply(deltas)
        assert bucket.frequencies() == sprofile.frequencies()

    def test_baseline_remove_many_reject_is_all_or_nothing(self):
        from repro.baselines.bucket import BucketProfiler

        bucket = BucketProfiler(4, allow_negative=False)
        bucket.add_many([0])
        with pytest.raises(FrequencyUnderflowError):
            bucket.remove_many([0, 0])
        assert bucket.frequencies() == [1, 0, 0, 0]
        assert bucket.n_removes == 0
        with pytest.raises(CapacityError):
            bucket.add_many([0, 9])
        assert bucket.frequencies() == [1, 0, 0, 0]
