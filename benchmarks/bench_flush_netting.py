"""Dict vs NumPy netting of one array batch, per call, across sizes.

Every binary wire batch is netted before it reaches the core
(:func:`repro.core.profile.net_batch`): below
``NETTING_CROSSOVER`` events with a dict over ``tolist()``, from it on
with ``np.unique`` + ``np.add.at``.  This module times both methods
through the three callers that net a batch:

- ``Profiler.ingest_batches([ArrayBatch])`` — a replica's flush;
- ``Profiler.ingest_arrays`` — the same batch as a direct call;
- ``repro.cluster.merge.partition_batch`` — the router's split of one
  frame over two partitions, whose ``applied`` count nets the frame;

at 32-2,048 events on flat profiles of m = 32,768 and m = 4,096, and
prints, per caller and m, the smallest size at which NumPy is no
slower than the dict.  The method is forced by setting the constant
to 0 (always NumPy) or past the largest size (always dict).  Timings
are medians of per-call wall clock over a profile warmed with the
same stream.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_flush_netting.py -q -s

or as a script (``python benchmarks/bench_flush_netting.py``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import repro.core.profile as core_profile
from repro.api import Profiler
from repro.cluster.merge import partition_batch
from repro.core.profile import ArrayBatch

SIZES = (32, 64, 128, 256, 512, 1024, 2048)
CAPACITIES = (32_768, 4_096)
CALLS = 40
WARM_EVENTS = 20_000
PARTITIONS = 2

#: Constant values that force one method: NumPy for every size, or a
#: dict for every size.
METHODS = {"numpy": 0, "dict": max(SIZES) + 1}


def _batches(m: int, size: int, seed: int) -> list[tuple]:
    """``CALLS`` batches of ``size`` events: ids uniform over ``m``,
    three adds to every remove (a non-strict profile takes both)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(CALLS):
        ids = rng.integers(0, m, size, dtype=np.int64)
        deltas = np.where(rng.random(size) < 0.75, 1, -1).astype(np.int64)
        out.append((ids, deltas))
    return out


def _warm_profiler(m: int) -> Profiler:
    profiler = Profiler.open(m, backend="flat")
    rng = np.random.default_rng(m)
    profiler.ingest_arrays(
        rng.integers(0, m, WARM_EVENTS, dtype=np.int64),
        np.ones(WARM_EVENTS, dtype=np.int64),
    )
    return profiler


def _callers(m: int) -> dict:
    profiler = _warm_profiler(m)
    return {
        "ingest_batches": lambda ids, deltas: profiler.ingest_batches(
            [ArrayBatch(ids, deltas)]
        ),
        "ingest_arrays": profiler.ingest_arrays,
        "partition_batch": lambda ids, deltas: partition_batch(
            ArrayBatch(ids, deltas), PARTITIONS, m
        ),
    }


def _per_call_us(call, batches) -> float:
    times = []
    for ids, deltas in batches:
        start = time.perf_counter()
        call(ids, deltas)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def measure() -> dict:
    """``{(caller, m, size): {method: us per call}}``, methods
    alternated per cell so drift hits both alike."""
    saved = core_profile.NETTING_CROSSOVER
    results: dict = {}
    try:
        for m in CAPACITIES:
            callers = _callers(m)
            for size in SIZES:
                batches = _batches(m, size, seed=size)
                for name, call in callers.items():
                    cell = results.setdefault((name, m, size), {})
                    for method, constant in METHODS.items():
                        core_profile.NETTING_CROSSOVER = constant
                        call(*batches[0])  # warm the path
                        cell[method] = _per_call_us(call, batches)
    finally:
        core_profile.NETTING_CROSSOVER = saved
    return results


def crossovers(results: dict) -> dict:
    """``{(caller, m): smallest size where NumPy <= dict, or None}``."""
    out: dict = {}
    for (name, m, size), cell in results.items():  # sizes ascend
        key = (name, m)
        out.setdefault(key, None)
        if out[key] is None and cell["numpy"] <= cell["dict"]:
            out[key] = size
    return out


def report(results: dict) -> str:
    lines = [
        f"{'caller':<16}{'m':>7}{'events':>8}"
        f"{'dict us':>10}{'numpy us':>10}{'ratio':>8}"
    ]
    for (name, m, size), cell in results.items():
        lines.append(
            f"{name:<16}{m:>7}{size:>8}{cell['dict']:>10.1f}"
            f"{cell['numpy']:>10.1f}{cell['dict'] / cell['numpy']:>8.2f}"
        )
    lines.append(
        f"NETTING_CROSSOVER = {core_profile.NETTING_CROSSOVER}; "
        f"NumPy first no slower than the dict at:"
    )
    for (name, m), size in crossovers(results).items():
        where = f"{size} events" if size else f"> {max(SIZES)} events"
        lines.append(f"  {name:<16} m={m:<7} {where}")
    return "\n".join(lines)


def test_dict_nets_small_batches_faster():
    """The premise of the constant: a dict nets a replica-sized batch
    (32 events) faster than NumPy through every caller, and NumPy nets
    the largest frames faster where netting is all that differs (the
    router's partition; on the facade paths the two methods also feed
    different core calls, ``apply`` and ``apply_arrays``)."""
    results = measure()
    print("\n" + report(results))
    for m in CAPACITIES:
        for name in ("ingest_batches", "ingest_arrays", "partition_batch"):
            cell = results[(name, m, SIZES[0])]
            assert cell["dict"] < cell["numpy"], (name, m, cell)
        cell = results[("partition_batch", m, SIZES[-1])]
        assert cell["numpy"] < cell["dict"], (m, cell)


if __name__ == "__main__":
    print(report(measure()))
