"""Unit tests for the exact phi-heavy-hitters query and bulk counts."""

import pytest

from repro.core.profile import SProfile
from repro.errors import CapacityError


def oracle_hitters(freqs, phi):
    total = sum(freqs)
    if total <= 0:
        return set()
    return {x for x, f in enumerate(freqs) if f > phi * total}


class TestHeavyHitters:
    def test_known_case(self):
        profile = SProfile(5)
        profile.add_count(0, 6)
        profile.add_count(1, 3)
        profile.add_count(2, 1)
        # total = 10; phi = 0.25 -> only objects above 2.5
        hitters = profile.heavy_hitters(0.25)
        assert {entry.obj for entry in hitters} == {0, 1}
        assert hitters[0].obj == 0  # descending frequency order

    def test_majority_special_case(self):
        profile = SProfile(4)
        profile.add_count(2, 5)
        profile.add_count(3, 2)
        hitters = profile.heavy_hitters(0.5)
        assert [entry.obj for entry in hitters] == [2]
        assert profile.majority() == 2

    def test_no_hitters(self):
        profile = SProfile(4)
        for x in range(4):
            profile.add(x)
        assert profile.heavy_hitters(0.5) == []

    def test_all_mass_one_object(self):
        profile = SProfile(3)
        profile.add_count(1, 10)
        hitters = profile.heavy_hitters(0.99)
        assert [entry.obj for entry in hitters] == [1]

    def test_zero_total(self):
        profile = SProfile(3)
        assert profile.heavy_hitters(0.1) == []
        profile.remove(0)  # negative total
        assert profile.heavy_hitters(0.1) == []

    def test_phi_validation(self):
        profile = SProfile(3)
        with pytest.raises(CapacityError):
            profile.heavy_hitters(0.0)
        with pytest.raises(CapacityError):
            profile.heavy_hitters(1.5)

    def test_matches_oracle_on_random_states(self, rng):
        for _ in range(30):
            m = rng.randrange(1, 30)
            profile = SProfile(m)
            freqs = [0] * m
            for _ in range(rng.randrange(0, 200)):
                x = rng.randrange(m)
                is_add = rng.random() < 0.8
                profile.update(x, is_add)
                freqs[x] += 1 if is_add else -1
            for phi in (0.01, 0.1, 0.3, 0.5, 0.9, 1.0):
                found = {entry.obj for entry in profile.heavy_hitters(phi)}
                assert found == oracle_hitters(freqs, phi), (m, phi)

    def test_works_on_snapshot(self):
        profile = SProfile(4)
        profile.add_count(0, 5)
        profile.add(1)
        snap = profile.snapshot()
        assert [entry.obj for entry in snap.heavy_hitters(0.5)] == [0]


class TestBulkCounts:
    def test_add_count(self):
        profile = SProfile(3)
        profile.add_count(1, 4)
        assert profile.frequency(1) == 4
        assert profile.n_adds == 4

    def test_remove_count(self):
        profile = SProfile(3)
        profile.add_count(1, 4)
        profile.remove_count(1, 6)
        assert profile.frequency(1) == -2

    def test_zero_count_is_noop(self):
        profile = SProfile(3)
        profile.add_count(1, 0)
        profile.remove_count(1, 0)
        assert profile.n_events == 0

    def test_negative_count_rejected(self):
        profile = SProfile(3)
        with pytest.raises(CapacityError):
            profile.add_count(1, -1)
        with pytest.raises(CapacityError):
            profile.remove_count(1, -1)


class TestHashableConsume:
    def test_consume_pairs(self):
        from repro.api import Profiler

        profiler = Profiler.open(keys="hashable")
        for event in [("a", True), ("b", True), ("a", True), ("b", False)]:
            profiler.ingest([event])
        assert profiler.events_ingested == 4
        assert profiler.frequency("a") == 2
        assert profiler.frequency("b") == 0
