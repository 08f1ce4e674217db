"""Hashable-key ingest through the facade's interner.

``Profiler.open(keys="hashable")`` interns arbitrary ids onto one
dense core.  Two regimes:

- a *known* universe (every key registered before the clock starts):
  the pure interning tax, timed against the dense flat facade fed the
  same stream as integer ids;
- a *growing* universe (opened empty, without a capacity): keys
  register as they first appear and the core doubles on demand, one
  event per ``ingest`` call and in 64- and 2000-event batches.

The stream is paper stream 1: 200k events over 20k keys, as strings
``"k<id>"`` on the hashable side.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_hashable_ingest.py -q
"""

import pytest

from repro.api import Profiler

N_EVENTS = 200_000
N_KEYS = 20_000


@pytest.fixture(scope="module")
def streams(stream_lists):
    """The same stream as ``(int id, flag)`` and ``(str key, flag)``."""
    ids, adds = stream_lists("stream1", N_EVENTS, N_KEYS)
    names = [f"k{x}" for x in range(N_KEYS)]
    return list(zip(ids, adds)), [(names[x], a) for x, a in zip(ids, adds)]


def _per_event(profiler, events):
    ingest = profiler.ingest
    for event in events:
        ingest([event])


def _batched(profiler, events, size):
    ingest = profiler.ingest
    for start in range(0, len(events), size):
        ingest(events[start : start + size])


def test_dense_flat_per_event(benchmark, streams):
    benchmark.group = "hashable ingest: known universe, per event"
    dense, _named = streams

    def setup():
        return (Profiler.open(N_KEYS, backend="flat"), dense), {}

    benchmark.pedantic(_per_event, setup=setup, rounds=3, iterations=1)


def test_hashable_known_universe_per_event(benchmark, streams):
    benchmark.group = "hashable ingest: known universe, per event"
    _dense, named = streams

    def setup():
        profiler = Profiler.open(keys="hashable")
        for x in range(N_KEYS):
            profiler.register(f"k{x}")
        return (profiler, named), {}

    benchmark.pedantic(_per_event, setup=setup, rounds=3, iterations=1)


def test_hashable_growing_per_event(benchmark, streams):
    benchmark.group = "hashable ingest: growing universe"
    _dense, named = streams

    def setup():
        return (Profiler.open(keys="hashable"), named), {}

    benchmark.pedantic(_per_event, setup=setup, rounds=3, iterations=1)


@pytest.mark.parametrize("size", [64, 2000])
def test_hashable_growing_batched(benchmark, streams, size):
    benchmark.group = "hashable ingest: growing universe"
    _dense, named = streams

    def setup():
        return (Profiler.open(keys="hashable"), named, size), {}

    benchmark.pedantic(_batched, setup=setup, rounds=3, iterations=1)
