"""Unit tests for the flat struct-of-arrays engine.

The contract under test: :class:`repro.core.flat.FlatProfile` answers
*identically* to :class:`repro.core.profile.SProfile` on every stream
and through every entry point (per-event, fused loops, batches), while
its internal flat representation stays structurally sound (audited both
by its own invariant checker and by round-tripping the runs through a
real :class:`~repro.core.blockset.BlockSet`).
"""

import gc
import random
import tracemalloc

import pytest

from repro.core.blockset import BlockSet
from repro.core.checkpoint import (
    flat_profile_from_state,
    profile_from_state,
    profile_to_state,
)
from repro.core.flat import _RANGES, FlatProfile
from repro.core.profile import SProfile
from repro.core.validation import audit_profile
from repro.errors import (
    CapacityError,
    CheckpointError,
    EmptyProfileError,
    FrequencyUnderflowError,
)


def drive_pair(rng, m, count, p_add=0.65):
    """An (SProfile, FlatProfile) pair fed the same random events."""
    sp, fp = SProfile(m), FlatProfile(m)
    for _ in range(count):
        x = rng.randrange(m)
        if rng.random() < p_add:
            sp.add(x)
            fp.add(x)
        else:
            sp.remove(x)
            fp.remove(x)
    return sp, fp


def assert_same_answers(sp, fp):
    assert fp.frequencies() == sp.frequencies()
    assert fp.total == sp.total
    assert fp.histogram() == sp.histogram()
    assert fp.block_count == sp.block_count
    assert fp.active_count == sp.active_count
    if sp.capacity:
        assert fp.max_frequency() == sp.max_frequency()
        assert fp.min_frequency() == sp.min_frequency()
        assert fp.median_frequency() == sp.median_frequency()
        assert fp.mode().frequency == sp.mode().frequency
        assert fp.mode().count == sp.mode().count
        assert fp.least().frequency == sp.least().frequency
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert fp.quantile(q) == sp.quantile(q)
        top_f = [e.frequency for e in fp.top_k(5)]
        assert top_f == [e.frequency for e in sp.top_k(5)]
    for f in (-1, 0, 1, 2):
        assert fp.support(f) == sp.support(f)


class TestPerEventEquivalence:
    def test_random_streams_agree_and_audit(self):
        rng = random.Random(0xF1A7)
        for trial in range(25):
            m = rng.randrange(1, 24)
            sp, fp = drive_pair(rng, m, rng.randrange(0, 150))
            assert_same_answers(sp, fp)
            audit_profile(fp)
            fp.audit()

    def test_blockset_audit_parity(self):
        """The flat runs round-trip through a real BlockSet audit."""
        rng = random.Random(7)
        for _ in range(10):
            m = rng.randrange(1, 30)
            sp, fp = drive_pair(rng, m, 120)
            assert fp.blocks.as_tuples() == sp.blocks.as_tuples()
            # A BlockSet rebuilt from the flat runs must pass its own
            # (block-object) audit — the two representations describe
            # the same partition.
            rebuilt = BlockSet.from_runs(m, fp.blocks.as_tuples())
            rebuilt.audit()

    def test_counters_and_bounds(self):
        fp = FlatProfile(4)
        fp.add(0)
        fp.add(0)
        fp.remove(1)
        assert (fp.n_adds, fp.n_removes, fp.n_events) == (2, 1, 3)
        assert fp.total == 1
        with pytest.raises(CapacityError):
            fp.add(4)
        with pytest.raises(CapacityError):
            fp.remove(-1)

    def test_strict_mode(self):
        fp = FlatProfile(3, allow_negative=False)
        fp.add(0)
        fp.remove(0)
        with pytest.raises(FrequencyUnderflowError):
            fp.remove(0)
        assert fp.frequencies() == [0, 0, 0]

    def test_empty_profile(self):
        fp = FlatProfile(0)
        assert fp.frequencies() == []
        assert fp.histogram() == []
        assert fp.block_count == 0
        with pytest.raises(EmptyProfileError):
            fp.mode()
        with pytest.raises(EmptyProfileError):
            fp.max_frequency()


class TestFusedLoops:
    def test_consume_arrays_matches_per_event(self):
        rng = random.Random(21)
        for _ in range(15):
            m = rng.randrange(1, 40)
            n = rng.randrange(0, 300)
            ids = [rng.randrange(m) for _ in range(n)]
            adds = [rng.random() < 0.6 for _ in range(n)]
            ref = FlatProfile(m)
            for x, a in zip(ids, adds):
                ref.update(x, a)
            fused = FlatProfile(m)
            assert fused.consume_arrays(ids, adds) == n
            assert fused.frequencies() == ref.frequencies()
            assert fused.n_adds == ref.n_adds
            assert fused.n_removes == ref.n_removes
            fused.audit()

    def test_consume_arrays_numpy_input(self):
        np = pytest.importorskip("numpy")
        ids = np.array([0, 1, 1, 2], dtype=np.int64)
        adds = np.array([True, True, False, True])
        fp = FlatProfile(4)
        assert fp.consume_arrays(ids, adds) == 4
        assert fp.frequencies() == [1, 0, 1, 0]

    @pytest.mark.parametrize("rank_kind", ["top", "median", "bottom"])
    def test_track_statistic_matches_brute_force(self, rank_kind):
        rng = random.Random(hash(rank_kind) & 0xFFFF)
        m = 31
        rank = {"top": m - 1, "median": (m - 1) // 2, "bottom": 0}[rank_kind]
        ids = [rng.randrange(m) for _ in range(400)]
        adds = [rng.random() < 0.6 for _ in range(400)]
        fp = FlatProfile(m)
        got = fp.track_statistic(ids, adds, rank)
        ref = FlatProfile(m)
        ref.consume_arrays(ids, adds)
        assert got == ref.frequency_at_rank(rank) == fp.last_tracked
        fp.audit()

    def test_track_statistic_is_maintained_per_event(self):
        """Replaying prefixes: the tracked value equals the statistic
        after every event, not only at the end."""
        rng = random.Random(5)
        m = 9
        ids = [rng.randrange(m) for _ in range(60)]
        adds = [rng.random() < 0.6 for _ in range(60)]
        for cut in range(len(ids) + 1):
            fp = FlatProfile(m)
            got = fp.track_statistic(ids[:cut], adds[:cut], m - 1)
            assert got == fp.max_frequency()

    def test_track_statistic_validates_rank(self):
        fp = FlatProfile(4)
        with pytest.raises(CapacityError):
            fp.track_statistic([0], [True], 4)
        with pytest.raises(CapacityError):
            fp.track_statistic([0], [True], -1)

    def test_negative_id_rejects_batch_before_mutation(self):
        fp = FlatProfile(5)
        with pytest.raises(CapacityError):
            fp.consume_arrays([0, -2, 1], [True, True, True])
        assert fp.total == 0
        assert fp.n_events == 0

    def test_oversized_id_applies_prefix_like_consume(self):
        fp = FlatProfile(5)
        with pytest.raises(CapacityError):
            fp.consume_arrays([0, 1, 7, 2], [True, True, True, True])
        assert fp.frequencies() == [1, 1, 0, 0, 0]
        assert fp.n_adds == 2
        fp.audit()

    def test_length_mismatch(self):
        fp = FlatProfile(3)
        with pytest.raises(CapacityError):
            fp.consume_arrays([0, 1], [True])

    def test_strict_mode_fused_falls_back_to_guarded_loop(self):
        fp = FlatProfile(3, allow_negative=False)
        with pytest.raises(FrequencyUnderflowError):
            fp.consume_arrays([0, 0, 0], [True, False, False])
        # Event-at-a-time contract: the prefix before the raise applied.
        assert fp.frequency(0) == 0
        assert fp.n_events == 2
        got = fp.track_statistic([1, 1], [True, True], 2)
        assert got == fp.max_frequency() == 2


class TestBatchPaths:
    def test_add_many_remove_many_apply_match_sprofile(self):
        rng = random.Random(0xBA7C)
        for trial in range(20):
            m = rng.randrange(1, 30)
            sp, fp = SProfile(m), FlatProfile(m)
            for _ in range(rng.randrange(1, 5)):
                batch = [rng.randrange(m) for _ in range(rng.randrange(0, 60))]
                assert sp.add_many(batch) == fp.add_many(batch)
                removal = [
                    rng.randrange(m) for _ in range(rng.randrange(0, 20))
                ]
                assert sp.remove_many(removal) == fp.remove_many(removal)
                deltas = {
                    rng.randrange(m): rng.randrange(-4, 5)
                    for _ in range(rng.randrange(0, 8))
                }
                assert sp.apply(dict(deltas)) == fp.apply(dict(deltas))
            assert_same_answers(sp, fp)
            assert (sp.n_adds, sp.n_removes) == (fp.n_adds, fp.n_removes)
            audit_profile(fp)

    def test_batches_cross_the_rebuild_threshold(self):
        # Dense (vectorized rebuild) and sparse (climbs) both land on
        # the same frequencies.
        m = 10
        dense = list(range(m)) * 3
        sparse = [0, 0, 1]
        for batch in (dense, sparse):
            sp, fp = SProfile(m), FlatProfile(m)
            sp.add_many(batch)
            fp.add_many(batch)
            assert fp.frequencies() == sp.frequencies()
            fp.audit()

    def test_add_many_numpy_batch(self):
        np = pytest.importorskip("numpy")
        m = 50
        arr = np.random.default_rng(0).integers(0, m, 500)
        sp, fp = SProfile(m), FlatProfile(m)
        assert sp.add_many(arr) == fp.add_many(arr) == 500
        assert fp.frequencies() == sp.frequencies()
        assert fp.n_adds == 500
        fp.audit()

    def test_bad_ids_reject_whole_batch(self):
        fp = FlatProfile(4)
        for batch in ([1, 9], [1, -1]):
            with pytest.raises(CapacityError):
                fp.add_many(batch)
            with pytest.raises(CapacityError):
                fp.remove_many(batch)
        with pytest.raises(CapacityError):
            fp.apply({9: 1})
        assert fp.total == 0

    def test_strict_underflow_is_all_or_nothing(self):
        fp = FlatProfile(4, allow_negative=False)
        fp.add_many([0, 0, 1])
        with pytest.raises(FrequencyUnderflowError):
            fp.remove_many([0, 0, 0])
        with pytest.raises(FrequencyUnderflowError):
            fp.apply({0: -1, 1: -2})
        # Dense strict rejection (rebuild path) is atomic too.
        with pytest.raises(FrequencyUnderflowError):
            fp.remove_many([0, 0, 0, 1, 2, 3])
        assert fp.frequencies() == [2, 1, 0, 0]

    def test_add_count_remove_count(self):
        fp = FlatProfile(6)
        fp.add_count(2, 5)
        fp.remove_count(2, 2)
        assert fp.frequency(2) == 3
        with pytest.raises(CapacityError):
            fp.add_count(2, -1)
        strict = FlatProfile(3, allow_negative=False)
        with pytest.raises(FrequencyUnderflowError):
            strict.remove_count(0, 1)

    @pytest.mark.parametrize("allow_negative", [True, False])
    def test_direct_climb_callers_range_check(self, allow_negative):
        """The climb loops trust their callers' range check; every
        direct caller runs one, so a bad id mutates nothing."""
        fp = FlatProfile(6, allow_negative=allow_negative)
        fp.add_many([1, 1, 4])
        before = (fp.frequencies(), fp.n_adds, fp.n_removes)
        calls = [
            lambda: fp.add_count(6, 1),
            lambda: fp.add_count(-1, 2),
            lambda: fp.remove_count(6, 1),
            lambda: fp.remove_count(-7, 1),
            # Object-dtype ids take the dict fallback of the batch paths.
            lambda: fp.add_many([1, 2**70]),
            lambda: fp.remove_many([1, 2**70]),
        ]
        for call in calls:
            with pytest.raises(CapacityError):
                call()
            assert (fp.frequencies(), fp.n_adds, fp.n_removes) == before
        fp.audit()

    @pytest.mark.parametrize("array_engine", [False, True])
    @pytest.mark.parametrize("bad", [-1, 600, 10**6])
    def test_long_batch_with_bad_id_mutates_nothing(self, array_engine, bad):
        """A batch long enough to net with NumPy (``bincount`` when its
        ids are dense, ``unique`` when one is negative or far out) is
        range-checked by the core like any other net."""
        np = pytest.importorskip("numpy")
        from repro.core.profile import NETTING_CROSSOVER

        fp = FlatProfile(600, array_engine=array_engine)
        fp.add_many(list(range(600)))
        before = (fp.frequencies(), fp.n_adds, fp.n_removes)
        ids = np.arange(NETTING_CROSSOVER, dtype=np.int64) % 300
        ids[-1] = bad
        for call in (fp.add_many, fp.remove_many):
            for batch in (ids, ids.tolist()):
                with pytest.raises(CapacityError, match="out of range"):
                    call(batch)
                assert (fp.frequencies(), fp.n_adds, fp.n_removes) == before
        fp.audit()

    def test_apply_opposing_deltas_cancel(self):
        fp = FlatProfile(4)
        assert fp.apply([(1, +2), (1, -2)]) == 0
        assert fp.total == 0 and fp.n_events == 0

    @pytest.mark.parametrize("array_engine", [False, True])
    def test_apply_arrays_rejects_unequal_lengths(self, array_engine):
        """Neither order truncates: the shape check runs before any
        mutation, on the climb path (2 keys) and the rebuild path."""
        np = pytest.importorskip("numpy")
        for m in (100, 3):
            fp = FlatProfile(m, array_engine=array_engine)
            for keys, sums in (([0, 1, 2], [1, 1]), ([0, 1], [1, 1, 1])):
                with pytest.raises(CapacityError, match="parallel"):
                    fp.apply_arrays(np.array(keys), np.array(sums))
            assert fp.frequencies() == [0] * m
            assert (fp.n_adds, fp.n_removes) == (0, 0)

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("spread", [False, True])
    def test_batch_costs_nothing_per_capacity(self, as_array, spread):
        """Netting a batch makes no pass over the whole universe: a
        short batch nets with a dict, a long one spread over the ids
        with ``unique``, never a ``bincount`` up to ``m``."""
        np = pytest.importorskip("numpy")
        fp = FlatProfile(2_000_000)
        batch = [7, 1_999_999, 7, 3]
        if spread:
            batch = batch + list(range(8, 2_000_000, 2_000))
        if as_array:
            batch = np.array(batch, dtype=np.int64)
        tracemalloc.start()
        try:
            assert fp.add_many(batch) == len(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert fp.frequency(7) == 2 and fp.frequency(1_999_999) == 1

    @pytest.mark.parametrize("array_engine", [False, True])
    def test_one_net_takes_one_branch_through_every_entry(
        self, array_engine, monkeypatch
    ):
        """``apply`` and ``apply_arrays`` choose climbs or a rebuild by
        the engine's one rule, whatever form the net comes in."""
        np = pytest.importorskip("numpy")
        import repro.core.flat as core_flat

        divisor = (
            core_flat.ARRAY_REBUILD_DIVISOR
            if array_engine
            else core_flat.LIST_REBUILD_DIVISOR
        )
        rebuilds = []
        real = FlatProfile._apply_rebuild

        def spy(self, keys, sums):
            rebuilds.append(len(keys))
            return real(self, keys, sums)

        monkeypatch.setattr(FlatProfile, "_apply_rebuild", spy)
        m = 8 * divisor
        for distinct in (1, 7, 8, 9, m // 2):
            # One zero-net key rides along: the rule counts non-zero ones.
            net = {x: 1 + x % 3 for x in range(distinct)}
            net[m - 1] = 0
            taken = []
            for land in (
                lambda p: p.apply(dict(net)),
                lambda p: p.apply(list(net.items())),
                lambda p: p.apply_arrays(
                    np.array(list(net)), np.array(list(net.values()))
                ),
                lambda p: p.add_many(
                    [x for x, d in net.items() for _ in range(d)]
                ),
            ):
                fp = FlatProfile(m, array_engine=array_engine)
                rebuilds.clear()
                assert land(fp) == sum(net.values())
                taken.append(bool(rebuilds))
                audit_profile(fp)
            assert taken == [distinct * divisor >= m] * 4, distinct


class TestStructureManagement:
    def test_from_frequencies_roundtrip(self):
        rng = random.Random(77)
        freqs = [rng.randrange(-3, 9) for _ in range(40)]
        fp = FlatProfile.from_frequencies(freqs)
        sp = SProfile.from_frequencies(freqs)
        assert fp.frequencies() == freqs
        assert fp.histogram() == sp.histogram()
        assert fp.total == sum(freqs)
        audit_profile(fp)

    def test_from_frequencies_strict_rejects_negative(self):
        with pytest.raises(FrequencyUnderflowError):
            FlatProfile.from_frequencies([1, -1], allow_negative=False)

    def test_from_frequencies_accepts_iterator(self):
        fp = FlatProfile.from_frequencies(iter([3, 0, 1]))
        assert fp.frequencies() == [3, 0, 1]

    def test_grow_matches_sprofile(self):
        rng = random.Random(13)
        for _ in range(8):
            m = rng.randrange(1, 12)
            sp, fp = drive_pair(rng, m, 60, p_add=0.5)
            extra = rng.randrange(1, 6)
            sp.grow(extra)
            fp.grow(extra)
            assert fp.frequencies() == sp.frequencies()
            audit_profile(fp)
        with pytest.raises(CapacityError):
            fp.grow(0)

    def test_clear_copy_snapshot(self):
        rng = random.Random(3)
        _, fp = drive_pair(rng, 9, 70)
        clone = fp.copy()
        snap = fp.snapshot()
        assert clone.frequencies() == fp.frequencies()
        assert snap.frequencies() == fp.frequencies()
        clone.add(0)
        assert clone.frequency(0) == fp.frequency(0) + 1
        before = fp.frequencies()
        assert snap.frequencies() == before
        fp.clear()
        assert fp.total == 0
        assert fp.frequencies() == [0] * 9
        assert fp.n_events == 0
        fp.audit()

    def test_fresh_and_cleared_tables_share_rank_ints(self):
        """The O(m) constant: one int object per rank, not one per
        table.  Four separate ``range`` lists traced ~168 B/key."""
        import tracemalloc

        m = 100_000
        tracemalloc.start()
        try:
            fp = FlatProfile(m)
            fresh = tracemalloc.get_traced_memory()[0] / m
            fp.track_statistic(list(range(0, m, 3)), [True] * 33_334, m - 1)
            fp.clear()
            cleared = tracemalloc.get_traced_memory()[0] / m
        finally:
            tracemalloc.stop()
        assert fresh <= 80, fresh
        assert cleared <= 80, cleared
        fp.audit()
        assert fp.frequencies() == [0] * m

    def test_block_slot_recycling_is_bounded(self):
        fp = FlatProfile(50)
        rng = random.Random(1)
        for _ in range(5_000):
            fp.update(rng.randrange(50), rng.random() < 0.5)
        # Slots are recycled through the intrusive free list: the
        # total ever minted stays bounded by the universe size.
        assert fp.block_slots <= 51
        assert fp.block_count + fp.free_slots == fp.block_slots
        fp.audit()


def traced_bytes_per_key(build, m):
    """Traced bytes per key that ``build()``'s result holds (alive
    until the measurement is taken)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = build()
        cost = (tracemalloc.get_traced_memory()[0] - base) / m
    finally:
        tracemalloc.stop()
    return cost, held


class TestSharedRankRange:
    """Every live list-engine profile of one capacity shares one weakly
    held rank range, so only the first pays for the rank ints."""

    M = 100_000

    def test_second_profile_shares_the_range(self):
        m = self.M
        first = FlatProfile(m)
        cost, second = traced_bytes_per_key(lambda: FlatProfile(m), m)
        assert first._prev is second._prev
        assert first._nxt is second._nxt
        assert cost <= 30, cost
        second.add(5)
        assert first.frequency(5) == 0
        first.audit()
        second.audit()

    def test_range_dies_with_its_last_profile(self):
        """No O(m) outlives the profiles: the weak map drops the
        capacity and traced memory returns to its baseline."""
        m = self.M
        gc.collect()
        assert m not in _RANGES
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            a = FlatProfile(m)
            b = a.copy()
            c = FlatProfile(m)
            ids = list(range(0, m, 7))
            c.track_statistic(ids, [True] * len(ids), m - 1)
            del ids
            c.clear()
            assert a._prev is b._prev is c._prev
            assert m in _RANGES
            held = tracemalloc.get_traced_memory()[0] - base
            del a, b, c
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert m not in _RANGES
        assert left <= 0.01 * held, (left, held)

    def test_grow_takes_ttof_ints_from_the_shared_range(self):
        """``grow`` used to mint a second set of rank ints (~104 B/key
        against ~72 for a fresh profile)."""
        m = self.M

        def build():
            fp = FlatProfile(m // 2)
            fp.add_many([1, 1, 2, m // 2 - 1])
            fp.remove(3)
            fp.grow(m - m // 2)
            return fp

        cost, fp = traced_bytes_per_key(build, m)
        assert cost <= 80, cost
        fp.audit()
        expected = [0] * m
        expected[1] = 2
        expected[2] = 1
        expected[3] = -1
        expected[m // 2 - 1] = 1
        assert fp.frequencies() == expected
        assert fp._prev is FlatProfile(m)._prev


class TestFlatCheckpoint:
    def test_round_trip(self):
        rng = random.Random(0xC0DE)
        _, fp = drive_pair(rng, 12, 90)
        state = profile_to_state(fp)
        restored = flat_profile_from_state(state)
        assert isinstance(restored, FlatProfile)
        assert restored.frequencies() == fp.frequencies()
        assert restored.n_adds == fp.n_adds
        assert restored.n_removes == fp.n_removes
        assert restored.total == fp.total
        restored.audit()

    def test_cross_engine_restore(self):
        """One schema, either engine: a flat checkpoint restores into
        the block-object engine and vice versa."""
        rng = random.Random(0xAB)
        sp, fp = drive_pair(rng, 10, 80)
        as_sprofile = profile_from_state(profile_to_state(fp))
        assert isinstance(as_sprofile, SProfile)
        assert as_sprofile.frequencies() == fp.frequencies()
        as_flat = flat_profile_from_state(profile_to_state(sp))
        assert isinstance(as_flat, FlatProfile)
        assert as_flat.frequencies() == sp.frequencies()

    def test_corrupted_state_rejected(self):
        fp = FlatProfile(5)
        fp.add_many([1, 1, 2])
        state = profile_to_state(fp)
        bad = dict(state)
        bad["ttof"] = list(reversed(state["ttof"]))[1:]
        with pytest.raises(CheckpointError):
            flat_profile_from_state(bad)
        bad = dict(state)
        # Non-increasing run frequencies violate the block invariant.
        bad["runs"] = [[0, 2, 1], [3, 4, 0]]
        with pytest.raises(CheckpointError):
            flat_profile_from_state(bad)
        bad = dict(state)
        bad["runs"] = [[0, 2, 0]]  # gap: ranks 3-4 uncovered
        with pytest.raises(CheckpointError):
            flat_profile_from_state(bad)
        bad = dict(state)
        bad["version"] = 999
        with pytest.raises(CheckpointError):
            flat_profile_from_state(bad)


class TestArrayEngine:
    """`array_engine=True`: same structure, numpy-buffer storage.

    Equivalence is asserted against the list engine (itself pinned to
    SProfile above), plus the array-specific contracts: in-place batch
    installs, amortized-doubling slot growth, zero-copy state export,
    and external-buffer attachment.
    """

    def drive_pair(self, rng, m, count, p_add=0.65):
        pytest.importorskip("numpy")
        lp = FlatProfile(m)
        ap = FlatProfile(m, array_engine=True)
        for _ in range(count):
            x = rng.randrange(m)
            if rng.random() < p_add:
                lp.add(x)
                ap.add(x)
            else:
                lp.remove(x)
                ap.remove(x)
        return lp, ap

    def test_per_event_equivalence(self, rng):
        lp, ap = self.drive_pair(rng, 80, 4000)
        assert ap.array_engine
        assert lp.frequencies() == ap.frequencies()
        assert lp.histogram() == ap.histogram()
        assert lp.total == ap.total
        ap.audit()
        audit_profile(ap)

    def test_fused_loops_equivalence(self, rng):
        np = pytest.importorskip("numpy")
        m = 64
        lp = FlatProfile(m)
        ap = FlatProfile(m, array_engine=True)
        ids = np.array([rng.randrange(m) for _ in range(6000)])
        adds = np.array([rng.random() < 0.7 for _ in range(6000)])
        assert lp.consume_arrays(ids, adds) == ap.consume_arrays(ids, adds)
        assert lp.track_statistic(ids, adds, m - 1) == ap.track_statistic(
            ids, adds, m - 1
        )
        assert lp.track_statistic(ids, adds, m // 2) == ap.track_statistic(
            ids, adds, m // 2
        )
        assert lp.frequencies() == ap.frequencies()
        assert lp.n_events == ap.n_events
        ap.audit()

    def test_fused_fault_persists_prefix(self):
        np = pytest.importorskip("numpy")
        ap = FlatProfile(8, array_engine=True)
        ids = np.array([1, 2, 99, 3])
        adds = np.array([True, True, True, True])
        with pytest.raises(CapacityError):
            ap.consume_arrays(ids, adds)
        # The applied prefix survived the fault (consume's contract).
        assert ap.frequency(1) == 1 and ap.frequency(2) == 1
        assert ap.frequency(3) == 0
        ap.audit()

    def test_batch_paths_equivalence(self, rng):
        np = pytest.importorskip("numpy")
        m = 50
        lp = FlatProfile(m)
        ap = FlatProfile(m, array_engine=True)
        dense = np.array([rng.randrange(m) for _ in range(4000)])
        assert lp.add_many(dense) == ap.add_many(dense)
        sparse = [3, 3, 7]
        assert lp.add_many(sparse) == ap.add_many(sparse)
        assert lp.remove_many(sparse) == ap.remove_many(sparse)
        deltas = [(rng.randrange(m), rng.randrange(-3, 4)) for _ in range(25)]
        assert lp.apply(deltas) == ap.apply(deltas)
        assert lp.frequencies() == ap.frequencies()
        assert lp.total == ap.total
        ap.audit()

    def test_queries_return_plain_ints(self, rng):
        _, ap = self.drive_pair(rng, 40, 800)
        assert type(ap.frequency(3)) is int
        assert type(ap.max_frequency()) is int
        assert type(ap.mode().example) is int
        entry = ap.top_k(3)[0]
        assert type(entry.obj) is int and type(entry.frequency) is int
        f, count = ap.histogram()[0]
        assert type(f) is int and type(count) is int

    def test_slot_growth_doubles_amortized(self):
        pytest.importorskip("numpy")
        m = 512
        ap = FlatProfile(m, array_engine=True)
        assert len(ap._bl) == 8  # modest preallocation
        # Distinct frequencies 1..many force fresh slot mints.
        for x in range(m):
            for _ in range(x % 40):
                ap.add(x)
        assert ap.block_count > 8
        cap = len(ap._bl)
        assert cap >= ap.block_slots and cap & (cap - 1) == 0  # 2^k
        ap.audit()

    def test_copy_clear_grow(self, rng):
        _, ap = self.drive_pair(rng, 30, 500)
        clone = ap.copy()
        assert clone.array_engine
        clone.add(0)
        assert clone.frequency(0) == ap.frequency(0) + 1
        grown = ap.copy()
        grown.grow(5)
        assert grown.capacity == 35
        assert grown.frequencies()[:30] == ap.frequencies()
        grown.audit()
        ap.clear()
        assert ap.total == 0 and ap.frequencies() == [0] * 30
        ap.audit()

    def test_strict_mode(self):
        pytest.importorskip("numpy")
        ap = FlatProfile(5, allow_negative=False, array_engine=True)
        ap.add(1)
        with pytest.raises(FrequencyUnderflowError):
            ap.remove(2)
        with pytest.raises(FrequencyUnderflowError):
            ap.remove_many([1, 1])
        assert ap.frequencies() == [0, 1, 0, 0, 0]

    def test_from_frequencies_array(self):
        pytest.importorskip("numpy")
        ap = FlatProfile.from_frequencies([3, 1, 2, 0, 5], array_engine=True)
        assert ap.array_engine
        assert ap.frequencies() == [3, 1, 2, 0, 5]
        assert ap.total == 11
        ap.audit()

    def test_json_checkpoint_round_trips_both_engines(self, rng):
        import json

        _, ap = self.drive_pair(rng, 30, 600)
        state = profile_to_state(ap)
        json.dumps(state)  # no np.int64 leakage
        as_array = flat_profile_from_state(state, array_engine=True)
        as_list = flat_profile_from_state(state)
        as_blocks = profile_from_state(state)
        assert as_array.frequencies() == ap.frequencies()
        assert as_list.frequencies() == ap.frequencies()
        assert as_blocks.frequencies() == ap.frequencies()
        assert as_array.array_engine and not as_list.array_engine


class TestArrayState:
    """The zero-copy buffer-level checkpoint."""

    def test_round_trip(self, rng):
        np = pytest.importorskip("numpy")
        from repro.core.checkpoint import (
            flat_profile_from_array_state,
            flat_profile_to_array_state,
        )

        ap = FlatProfile(40, array_engine=True)
        ids = np.array([rng.randrange(40) for _ in range(3000)])
        ap.add_many(ids)
        state = flat_profile_to_array_state(ap)
        restored = flat_profile_from_array_state(state)
        assert restored.frequencies() == ap.frequencies()
        assert restored.n_events == ap.n_events
        assert restored.total == ap.total

    def test_export_allocates_o1_objects_per_buffer(self, rng):
        """The acceptance bar: checkpointing a numpy-backed profile is
        O(buffers) Python objects, not O(m) boxed ints."""
        np = pytest.importorskip("numpy")
        import gc

        from repro.core.checkpoint import flat_profile_to_array_state

        m = 50_000
        ap = FlatProfile(m, array_engine=True)
        ap.add_many(np.arange(m) % 97)
        gc.collect()
        before = len(gc.get_objects())
        state = flat_profile_to_array_state(ap)
        gc.collect()
        created = len(gc.get_objects()) - before
        # One dict + six ndarray views + a few scalars — far under any
        # per-element regime (m would add ~50k objects).
        assert created < 100, created
        # And the export really is zero-copy: it aliases live storage.
        assert np.shares_memory(state["ftot"], ap._ftot)
        assert np.shares_memory(state["bl"], ap._bl)

    def test_list_engine_also_exports(self, rng):
        pytest.importorskip("numpy")
        from repro.core.checkpoint import (
            flat_profile_from_array_state,
            flat_profile_to_array_state,
        )

        lp = FlatProfile(20)
        lp.add_many([1, 1, 2, 9])
        restored = flat_profile_from_array_state(
            flat_profile_to_array_state(lp)
        )
        assert restored.frequencies() == lp.frequencies()

    def test_tampered_state_fails_loudly(self, rng):
        pytest.importorskip("numpy")
        from repro.core.checkpoint import (
            flat_profile_from_array_state,
            flat_profile_to_array_state,
        )

        ap = FlatProfile(10, array_engine=True)
        ap.add_many([1, 1, 2])
        state = flat_profile_to_array_state(ap)
        bad_ptrb = dict(state)
        bad_ptrb["ptrb"] = bad_ptrb["ptrb"].copy()
        bad_ptrb["ptrb"][0] = 99
        with pytest.raises(CheckpointError):
            flat_profile_from_array_state(bad_ptrb)
        # A free-list head outside the minted slots must fail at
        # restore time, not crash the next add that pops the list.
        bad_free = dict(state)
        bad_free["free_head"] = 10**9
        with pytest.raises(CheckpointError):
            flat_profile_from_array_state(bad_free)
        bad_ttof = dict(state)
        bad_ttof["ttof"] = bad_ttof["ttof"].copy()
        bad_ttof["ttof"][0] = 10**6
        with pytest.raises(CheckpointError):
            flat_profile_from_array_state(bad_ttof)

    @pytest.mark.parametrize(
        "key,value",
        [
            (key, value)
            for key in (
                "capacity", "block_slots", "free_head", "n_adds",
                "n_removes", "base_total", "last_tracked",
            )
            for value in ("x", None, 1.5, True)
        ]
        + [("allow_negative", value) for value in ("x", None, 1.5, 1)]
        + [
            ("capacity", -1), ("block_slots", -1), ("n_adds", -1),
            ("n_removes", -1), ("free_head", -2),
        ],
    )
    def test_bad_scalar_fields_raise_checkpoint_error(self, key, value):
        pytest.importorskip("numpy")
        from repro.core.checkpoint import (
            flat_profile_from_array_state,
            flat_profile_to_array_state,
        )

        ap = FlatProfile(10, array_engine=True)
        ap.add_many([1, 1, 2])
        state = flat_profile_to_array_state(ap)
        state[key] = value
        with pytest.raises(CheckpointError):
            flat_profile_from_array_state(state)

    def test_negative_mode_scalars_round_trip(self):
        np = pytest.importorskip("numpy")
        from repro.core.checkpoint import (
            flat_profile_from_array_state,
            flat_profile_to_array_state,
        )

        ap = FlatProfile(6, array_engine=True)
        assert ap.track_statistic([0, 0], [False, False], 0) == -2
        state = flat_profile_to_array_state(ap)
        assert state["last_tracked"] == -2 and state["base_total"] == 0
        state["n_adds"] = np.int64(state["n_adds"])
        restored = flat_profile_from_array_state(state)
        assert restored.frequencies() == ap.frequencies()
        assert restored.last_tracked == -2

