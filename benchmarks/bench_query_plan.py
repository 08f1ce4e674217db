"""Fused query plans vs separate calls (emits BENCH_query_plan.json).

The dashboard read pattern: mode + top-10 + histogram + p50 + p99,
refreshed together, on one core (``flat`` and ``exact``).
``Profiler.evaluate`` answers all five from one descending run walk;
the standalone calls are mostly O(1)/O(k) pointer reads (that is the
paper's point), and only the histogram walks the blocks.  So on one
core fusion saves at most the histogram's walk, and the fused walk's
own bookkeeping can cost more than it saves: the ratio is reported,
not asserted (see ``docs/perf.md``).  What is asserted is that both
routes give the same answers.

Timings are min-of-N wall clock (no pytest-benchmark dependency so the
module can emit its JSON artifact in one shot).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_query_plan.py -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.api import Profiler, Query
from repro.bench.workloads import build_stream

UNIVERSE = 20_000
N_EVENTS = 60_000
ROUNDS = 7

ARTIFACT = Path(__file__).resolve().parent / "BENCH_query_plan.json"

PLAN = (
    Query.mode(),
    Query.top_k(10),
    Query.histogram(),
    Query.quantile(0.5),
    Query.quantile(0.99),
)


def _loaded_profiler(backend: str) -> Profiler:
    profiler = Profiler.open(UNIVERSE, backend=backend)
    stream = build_stream("stream1", N_EVENTS, UNIVERSE, seed=7)
    ids, adds = stream.arrays()
    profiler.ingest(zip(ids.tolist(), adds.tolist()))
    return profiler


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _separate(profiler: Profiler) -> None:
    profiler.mode()
    profiler.top_k(10)
    profiler.histogram()
    profiler.quantile(0.5)
    profiler.quantile(0.99)


def _fused(profiler: Profiler) -> None:
    profiler.evaluate(*PLAN)


def _measure(backend: str) -> dict:
    profiler = _loaded_profiler(backend)
    # Answers must agree before timings mean anything.
    fused = profiler.evaluate(*PLAN)
    assert fused[Query.mode()] == profiler.mode()
    assert fused[Query.top_k(10)] == profiler.top_k(10)
    assert fused[Query.histogram()] == profiler.histogram()
    assert fused[Query.quantile(0.5)] == profiler.quantile(0.5)
    assert fused[Query.quantile(0.99)] == profiler.quantile(0.99)
    separate_s = _best_of(lambda: _separate(profiler))
    fused_s = _best_of(lambda: _fused(profiler))
    return {
        "backend": profiler.backend_name,
        "universe": UNIVERSE,
        "events": N_EVENTS,
        "queries": [q.key for q in PLAN],
        "separate_s": separate_s,
        "fused_s": fused_s,
        "speedup": separate_s / fused_s if fused_s else float("inf"),
    }


def test_fused_plan_and_separate_calls_on_one_core():
    """Both routes answer alike on each core; the timings are
    recorded in the artifact."""
    results = [_measure("flat"), _measure("exact")]
    ARTIFACT.write_text(json.dumps({"results": results}, indent=2))
    for result in results:
        print(
            f"\n{result['backend']}: separate "
            f"{result['separate_s'] * 1e3:.3f} ms, fused "
            f"{result['fused_s'] * 1e3:.3f} ms "
            f"({result['speedup']:.2f}x)"
        )
