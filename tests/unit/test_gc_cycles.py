"""No engine leaves cyclic garbage.

A profile caught in a reference cycle is reclaimed only by the cyclic
GC, which the allocation-free hot loops rarely trigger, so every
dropped profile would sit in memory until some later gen-2 pass.  Each
case runs with the collector off, drops everything it built, and then
asserts that a collection finds nothing: the whole object graph was
freed by refcount alone.
"""

import gc

import pytest

from repro import Profiler, Query
from repro.core.flat import FlatProfile
from repro.core.profile import SProfile

DENSE = [1, 1, 3, 1, 2, 7, 7]
HASHABLE = ["a", "a", "b", ("t", 1), "a"]


def drive_core(profile):
    for x in DENSE:
        profile.add(x)
    profile.remove(3)
    profile.mode()
    profile.top_k(3)
    profile.histogram()
    clone = profile.copy()
    clone.add(2)
    clone.mode()
    profile.snapshot().top_k(2)


def drive_facade(keys, **options):
    profiler = Profiler.open(16, keys=keys, **options)
    batch = DENSE if keys == "dense" else HASHABLE
    profiler.ingest([(k, 1) for k in batch] + [(batch[0], -1)])
    profiler.mode()
    profiler.top_k(3)
    profiler.histogram()
    profiler.evaluate(Query.mode(), Query.top_k(2), Query.histogram())
    profiler.snapshot()


CASES = {
    "flat-list": lambda: drive_core(FlatProfile(16)),
    "flat-array": lambda: drive_core(FlatProfile(16, array_engine=True)),
    "sprofile": lambda: drive_core(SProfile(16)),
    "open-flat": lambda: drive_facade("dense", backend="flat"),
    "open-exact": lambda: drive_facade("dense", backend="exact"),
    "open-shards2": lambda: drive_facade("dense", shards=2),
    "open-hashable-flat": lambda: drive_facade("hashable", backend="flat"),
    "open-hashable-exact": lambda: drive_facade("hashable", backend="exact"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_dropped_profile_leaves_no_cyclic_garbage(case):
    gc.collect()
    gc.disable()
    try:
        CASES[case]()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{case}: {found} objects reclaimable only by the GC"
