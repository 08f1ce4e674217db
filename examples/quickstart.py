"""Quickstart: the unified ``repro.api`` facade in two minutes.

One factory opens any backend; one verb ingests; one call answers a
whole dashboard of queries from a single block walk.

Run with::

    python examples/quickstart.py
"""

from repro import Profiler, Query
from repro.core.stats import summarize


def facade_tour() -> None:
    """The documented way in: Profiler.open + ingest + evaluate."""
    print("=== unified facade (repro.api.Profiler) ===")
    profile = Profiler.open(capacity=1000, backend="auto")

    # A log stream: Event objects, (obj, flag) pairs, (obj, delta)
    # pairs and mappings all ride the single ingest() verb.
    profile.ingest([(7, True), (7, True), (3, True), (7, True), (3, False)])
    profile.ingest({42: -1})  # negative frequencies are paper semantics

    # A dashboard read: every statistic from ONE walk over the blocks.
    result = profile.evaluate(
        Query.mode(),
        Query.least(),
        Query.top_k(3),
        Query.median(),
        Query.quantile(0.99),
        Query.support(0),
        Query.histogram(),
    )
    mode, least = result["mode"], result["least"]
    print(f"mode: object {mode.example} with frequency {mode.frequency}")
    print(f"least: object {least.example} at frequency {least.frequency}")
    print(f"top-3: {result['top_k']}")
    print(f"median / p99 frequency: {result['median']} / "
          f"{result['quantile']}")
    print(f"objects at frequency 0: {result['support']}")
    print(f"histogram: {result['histogram']}")
    print(summarize(profile))
    print()


def backend_tour() -> None:
    """Identical surface over the flat, exact and baseline backends."""
    print("=== backend selection ===")
    events = [(x % 7, True) for x in range(50)]
    for backend in ("flat", "exact", "bucket"):
        p = Profiler.open(16, backend=backend)
        p.ingest(events)
        print(f"{p.backend_name:>8}: mode={p.mode().frequency} "
              f"median={p.median_frequency()} total={p.total}")
    # Approximate backend: sublinear space, bounded error, add-only.
    sketch = Profiler.open(backend="approx", counters=8)
    sketch.ingest([("hot", +500), ("warm", +20), ("cold", +1)])
    print(f"  approx: hot~{sketch.frequency('hot')} "
          f"(error bound {sketch.backend.error_bound():.1f})")
    print()


def hashable_keys_tour() -> None:
    """Arbitrary hashable ids; the universe grows as ids appear."""
    print("=== hashable keys ===")
    likes = Profiler.open(keys="hashable")
    likes.ingest([("ada", +1), ("bob", +1), ("ada", +1),
                  ("cyd", +1), ("ada", +1)])
    # Batches coalesce: opposing events inside ONE batch cancel before
    # touching the structure, so the unlike goes in its own batch.
    likes.ingest([("bob", -1)])

    print(f"tracked objects: {len(likes)}")
    print(f"mode: {likes.mode()}")
    print(f"board: {likes.top_k(3)}")
    print(f"median score: {likes.median_frequency()}")
    print(f"histogram: {likes.histogram()}")
    print()


def checkpoint_tour() -> None:
    """Facade state serializes to JSON-safe dicts and restores losslessly."""
    print("=== checkpointing ===")
    profile = Profiler.open(16, backend="flat")
    profile.ingest([(1, +2), (2, +1), (9, +3)])
    restored = Profiler.from_state(profile.to_state())
    print(f"restored mode: {restored.mode()} "
          f"(events processed: {restored.n_events})")


if __name__ == "__main__":
    facade_tour()
    backend_tour()
    hashable_keys_tour()
    checkpoint_tour()
