"""Integration: the engine agrees with the sequential profile on the
paper's workloads and on the adversarial streams.

The property suite covers small random cases exhaustively; this file
drives the real stream generators at size — batched ingestion through
the facade's sharded backend (``Profiler.open(m, shards=N)``) against
a per-event :class:`SProfile`, across shard counts, on streams chosen
to stress both bulk strategies (dense rebuilds on uniform streams,
long climbs on single-hot).
"""

import json

import numpy as np
import pytest

from repro.api import Profiler
from repro.bench.workloads import build_stream
from repro.core.profile import SProfile
from repro.engine.sharding import ShardedProfiler

UNIVERSE = 300
N_EVENTS = 6_000
BATCH = 512

STREAMS = ("stream1", "stream2", "stream3", "single-hot", "staircase")


def _signed(stream):
    """The stream as parallel id / ±1 delta arrays (``ingest_arrays``)."""
    return stream.ids, np.where(stream.adds, 1, -1)


@pytest.mark.parametrize("stream_name", STREAMS)
@pytest.mark.parametrize("n_shards", (1, 4))
def test_batched_sharded_facade_matches_sequential(stream_name, n_shards):
    stream = build_stream(stream_name, N_EVENTS, UNIVERSE, seed=23)
    ids, deltas = _signed(stream)

    sequential = SProfile(UNIVERSE)
    sequential.consume_arrays(stream.ids.tolist(), stream.adds.tolist())

    profiler = Profiler.open(UNIVERSE, shards=n_shards)
    for start in range(0, N_EVENTS, BATCH):
        profiler.ingest_arrays(
            ids[start : start + BATCH], deltas[start : start + BATCH]
        )

    profiler.backend.audit()
    freqs = sequential.frequencies()
    sorted_freqs = sorted(freqs)
    assert profiler.frequencies() == freqs
    assert profiler.total == sequential.total
    assert profiler.histogram() == sequential.histogram()
    assert profiler.median_frequency() == sorted_freqs[(UNIVERSE - 1) // 2]
    assert profiler.mode().frequency == max(freqs)
    assert [e.frequency for e in profiler.top_k(25)] == (
        sorted_freqs[::-1][:25]
    )
    assert sorted(profiler.heavy_hitters(0.05)) == sorted(
        sequential.heavy_hitters(0.05)
    )
    assert profiler.events_ingested == N_EVENTS


@pytest.mark.parametrize("stream_name", ("stream2", "root-thrash"))
def test_checkpoint_mid_stream_resumes_identically(stream_name):
    """Checkpoint at half-stream, restore, finish: same final answers."""
    stream = build_stream(stream_name, N_EVENTS, UNIVERSE, seed=5)
    ids, deltas = _signed(stream)
    half = N_EVENTS // 2

    straight = Profiler.open(UNIVERSE, shards=3)
    straight.ingest_arrays(ids, deltas)

    first_leg = Profiler.open(UNIVERSE, shards=3)
    first_leg.ingest_arrays(ids[:half], deltas[:half])
    resumed = Profiler.from_state(json.loads(json.dumps(first_leg.to_state())))
    resumed.ingest_arrays(ids[half:], deltas[half:])

    assert resumed.frequencies() == straight.frequencies()
    assert resumed.histogram() == straight.histogram()
    assert resumed.total == straight.total
    assert resumed.events_ingested == straight.events_ingested


def test_sharded_batch_equals_sharded_per_event_at_size():
    stream = build_stream("stream3", N_EVENTS, UNIVERSE, seed=31)
    ids, adds = stream.ids.tolist(), stream.adds.tolist()

    per_event = ShardedProfiler(UNIVERSE, n_shards=5)
    per_event.consume_arrays(ids, adds)

    batched = ShardedProfiler(UNIVERSE, n_shards=5)
    batched.apply(
        [(x, 1 if a else -1) for x, a in zip(ids, adds)]
    )

    assert batched.frequencies() == per_event.frequencies()
    assert batched.histogram() == per_event.histogram()
    batched.audit()
