"""The scale-out layer: batched ingestion over sharded S-Profiles.

``repro.core`` is the paper — one profiler, O(1) per event.  This
package is the production story on top of it:

- :mod:`repro.engine.sharding` — :class:`ShardedProfiler` partitions
  the key space over N independent S-Profiles and answers every exact
  query by merging per-shard block walks.
- :mod:`repro.engine.merge` — the pure merge algebra over per-shard
  answers, shared with the cluster router.

Batched ingestion and checkpoints of a sharded profile go through the
facade: ``repro.api.Profiler.open(capacity, shards=N)``.

See ``docs/paper_map.md`` for how this layer relates (and does not
relate) to the paper, and ``benchmarks/bench_batch_vs_loop.py`` /
``benchmarks/bench_shard_scaling.py`` for the measured effects.
"""

from repro.engine.sharding import ShardedProfiler

__all__ = ["ShardedProfiler"]
