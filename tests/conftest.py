"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import random

import pytest

from repro.baselines.bucket import BucketProfiler
from repro.core.profile import SProfile


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG; reseed per test for reproducibility."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_profile() -> SProfile:
    """A capacity-8 profile preloaded with a known event history.

    Final frequencies: obj 1 -> 3, obj 2 -> 1, obj 3 -> 1, obj 4 -> -1,
    objects 0, 5, 6, 7 -> 0.
    """
    profile = SProfile(8)
    for x in (1, 1, 3, 1, 2):
        profile.add(x)
    profile.remove(4)
    return profile


def apply_random_events(
    profilers, rng: random.Random, capacity: int, count: int, p_add: float = 0.7
) -> None:
    """Drive the same random event sequence into several profilers."""
    for _ in range(count):
        x = rng.randrange(capacity)
        is_add = rng.random() < p_add
        for profiler in profilers:
            profiler.update(x, is_add)


@pytest.fixture
def paired_with_oracle(rng):
    """Factory: (SProfile, BucketProfiler) after `count` random events."""

    def build(capacity: int, count: int, **kwargs):
        profile = SProfile(capacity, **kwargs)
        oracle = BucketProfiler(capacity)
        apply_random_events([profile, oracle], rng, capacity, count)
        return profile, oracle

    return build
