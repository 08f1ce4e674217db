"""Dict vs NumPy netting of one array batch, and the core's
climb-or-rebuild rule, per call, across sizes.

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
same stream.

The second table prices the rule that lands a net batch: a flat core
climbs once per distinct key, or rebuilds the whole profile once
``distinct * divisor >= m`` (:data:`repro.core.flat.LIST_REBUILD_DIVISOR`
and :data:`~repro.core.flat.ARRAY_REBUILD_DIVISOR`).  It times both
sides through ``FlatProfile.apply_arrays`` on each engine, at m/200 to
m/2 distinct keys on m = 4,096 and 32,768, forcing each side by
setting the engine's divisor to 0 (always climb) or to m (always
rebuild), and prints per engine and m the smallest fraction at which
the climbs are no faster than the rebuild.

The third table replays skewed traffic instead of uniform keys:
stream 1 over m = 4,096 in 1,024-event frames, split over two
partitions as the router does, so each replica sub-batch holds 512
events and about a fifth of its 2,048 local keys (the ``tier_bulk``
shape).  It lands one partition's sub-batches in order on a fresh
profile of each engine, both sides forced as above, and prints which
side the engine's rule takes.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_flush_netting.py -q -s

or as a script (``python benchmarks/bench_flush_netting.py``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import repro.core.flat as core_flat
import repro.core.profile as core_profile
from repro.api import Profiler
from repro.cluster.merge import partition_batch
from repro.core.flat import FlatProfile
from repro.core.profile import ArrayBatch, net_arrays
from repro.streams.generators import generate_stream, paper_stream

SIZES = (32, 64, 128, 256, 512, 1024, 2048)
CAPACITIES = (32_768, 4_096)
CALLS = 40
WARM_EVENTS = 20_000
PARTITIONS = 2

#: Constant values that force one method: NumPy for every size, or a
#: dict for every size.
METHODS = {"numpy": 0, "dict": max(SIZES) + 1}

#: A net batch names ``m // k`` distinct keys for each ``k``.
RULE_FRACTIONS = (200, 100, 50, 40, 20, 10, 6, 4, 3, 2)
RULE_CALLS = 15

#: Engine -> the module constant holding its divisor.
ENGINES = {"list": "LIST_REBUILD_DIVISOR", "array": "ARRAY_REBUILD_DIVISOR"}

#: The replayed traffic: stream 1, its universe, frame length, frames.
TRAFFIC_M = 4_096
TRAFFIC_FRAME = 1_024
TRAFFIC_FRAMES = 512
TRAFFIC_REPEATS = 3


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


def _rule_nets(m: int, distinct: int, seed: int) -> list[tuple]:
    """``RULE_CALLS`` net batches as sorted ``(keys, sums)`` arrays of
    ``distinct`` keys each, three adds to every remove."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(RULE_CALLS):
        ids = rng.choice(m, distinct, replace=False).astype(np.int64)
        deltas = np.where(rng.random(distinct) < 0.75, 1, -1)
        out.append(net_arrays(ids, deltas.astype(np.int64)))
    return out


def measure_rule() -> dict:
    """``{(engine, m, k): {"climbs"|"rebuild": us per call}}`` for a
    net of ``m // k`` keys, both sides on one warmed profile."""
    saved = {name: getattr(core_flat, name) for name in ENGINES.values()}
    results: dict = {}
    try:
        for engine, name in ENGINES.items():
            for m in CAPACITIES:
                profile = FlatProfile(m, array_engine=engine == "array")
                rng = np.random.default_rng(m)
                profile.add_many(rng.integers(0, m, WARM_EVENTS))
                for k in RULE_FRACTIONS:
                    nets = _rule_nets(m, m // k, seed=k)
                    cell = results.setdefault((engine, m, k), {})
                    for side, divisor in (("climbs", 0), ("rebuild", m)):
                        setattr(core_flat, name, divisor)
                        profile.apply_arrays(*nets[0])  # warm the path
                        cell[side] = _per_call_us(profile.apply_arrays, nets)
    finally:
        for name, divisor in saved.items():
            setattr(core_flat, name, divisor)
    return results


def rule_crossovers(results: dict) -> dict:
    """``{(engine, m): largest k where climbs >= rebuild, or None}``:
    the denser end of ``m / k`` at which the rebuild first wins."""
    out: dict = {}
    for (engine, m, k), cell in results.items():  # fractions ascend
        key = (engine, m)
        out.setdefault(key, None)
        if out[key] is None and cell["climbs"] >= cell["rebuild"]:
            out[key] = k
    return out


def report_rule(results: dict) -> str:
    lines = [
        f"{'engine':<8}{'m':>7}{'distinct':>10}"
        f"{'climbs us':>11}{'rebuild us':>12}{'ratio':>8}"
    ]
    for (engine, m, k), cell in results.items():
        lines.append(
            f"{engine:<8}{m:>7}{'m/' + str(k):>10}{cell['climbs']:>11.1f}"
            f"{cell['rebuild']:>12.1f}"
            f"{cell['climbs'] / cell['rebuild']:>8.2f}"
        )
    lines.append("climbs first no faster than the rebuild at:")
    for (engine, m), k in rule_crossovers(results).items():
        divisor = getattr(core_flat, ENGINES[engine])
        where = f"m/{k}" if k else f"> m/{RULE_FRACTIONS[-1]}"
        lines.append(
            f"  {engine:<6} m={m:<7} {where:<8} (rule: m/{divisor})"
        )
    return "\n".join(lines)


def _traffic_nets() -> tuple[int, list[tuple]]:
    """Partition 0's net sub-batches of the replayed stream, and its
    local capacity."""
    stream = generate_stream(
        paper_stream("stream1", TRAFFIC_FRAME * TRAFFIC_FRAMES, TRAFFIC_M,
                     seed=1)
    )
    ids = stream.ids.astype(np.int64)
    deltas = np.where(stream.adds, 1, -1).astype(np.int64)
    nets = []
    for lo in range(0, len(ids), TRAFFIC_FRAME):
        hi = lo + TRAFFIC_FRAME
        parts, _ = partition_batch(
            ArrayBatch(ids[lo:hi], deltas[lo:hi]), PARTITIONS, TRAFFIC_M
        )
        nets.append(net_arrays(*parts[0]))
    return TRAFFIC_M // PARTITIONS, nets


def measure_traffic() -> dict:
    """``{engine: {"climbs"|"rebuild": us per sub-batch, "distinct":
    (min, max) keys per sub-batch, "m": local capacity}}``; each side
    is the best of ``TRAFFIC_REPEATS`` in-order replays."""
    m, nets = _traffic_nets()
    distinct = [int(np.count_nonzero(sums)) for _keys, sums in nets]
    saved = {name: getattr(core_flat, name) for name in ENGINES.values()}
    results: dict = {}
    try:
        for engine, name in ENGINES.items():
            cell = results.setdefault(
                engine, {"m": m, "distinct": (min(distinct), max(distinct))}
            )
            for side, divisor in (("climbs", 0), ("rebuild", m)):
                setattr(core_flat, name, divisor)
                best = float("inf")
                for _ in range(TRAFFIC_REPEATS):
                    profile = FlatProfile(m, array_engine=engine == "array")
                    start = time.perf_counter()
                    for keys, sums in nets:
                        profile.apply_arrays(keys, sums)
                    best = min(best, time.perf_counter() - start)
                cell[side] = best / len(nets) * 1e6
    finally:
        for name, divisor in saved.items():
            setattr(core_flat, name, divisor)
    return results


def _rule_side(engine: str, cell: dict) -> str:
    """The side the engine's rule takes on the widest sub-batch."""
    divisor = getattr(core_flat, ENGINES[engine])
    return "rebuild" if cell["distinct"][1] * divisor >= cell["m"] else "climbs"


def report_traffic(results: dict) -> str:
    lines = [
        f"{'engine':<8}{'m':>7}{'distinct':>12}"
        f"{'climbs us':>11}{'rebuild us':>12}{'ratio':>8}{'rule':>9}"
    ]
    for engine, cell in results.items():
        lo, hi = cell["distinct"]
        lines.append(
            f"{engine:<8}{cell['m']:>7}{f'{lo}-{hi}':>12}"
            f"{cell['climbs']:>11.1f}{cell['rebuild']:>12.1f}"
            f"{cell['climbs'] / cell['rebuild']:>8.2f}"
            f"{_rule_side(engine, cell):>9}"
        )
    return "\n".join(lines)


def test_dict_nets_small_batches_faster():
    """The premise of the constant: a dict nets a replica-sized batch
    (32 events) faster than NumPy through every caller, and NumPy nets
    the largest frames faster where netting is all that differs (the
    router's partition; on the facade paths a dict net lands through
    ``apply`` and an array net through ``apply_arrays``, by the same
    climb-or-rebuild rule)."""
    results = measure()
    print("\n" + report(results))
    for m in CAPACITIES:
        for name in ("ingest_batches", "ingest_arrays", "partition_batch"):
            cell = results[(name, m, SIZES[0])]
            assert cell["dict"] < cell["numpy"], (name, m, cell)
        cell = results[("partition_batch", m, SIZES[-1])]
        assert cell["numpy"] < cell["dict"], (m, cell)


def test_rule_sides_win_at_their_ends():
    """Each side of every engine's rule wins where it applies: climbs
    at m/200 distinct keys, the rebuild at m/2."""
    results = measure_rule()
    print("\n" + report_rule(results))
    for engine in ENGINES:
        for m in CAPACITIES:
            sparse = results[(engine, m, RULE_FRACTIONS[0])]
            assert sparse["climbs"] < sparse["rebuild"], (engine, m, sparse)
            dense = results[(engine, m, RULE_FRACTIONS[-1])]
            assert dense["rebuild"] < dense["climbs"], (engine, m, dense)


def test_rule_takes_the_faster_side_on_skewed_traffic():
    """On the replayed stream-1 sub-batches each engine's rule takes
    the side that is faster there, within a tenth for noise."""
    results = measure_traffic()
    print("\n" + report_traffic(results))
    for engine, cell in results.items():
        taken = _rule_side(engine, cell)
        other = "rebuild" if taken == "climbs" else "climbs"
        assert cell[taken] <= 1.1 * cell[other], (engine, cell)


if __name__ == "__main__":
    print(report(measure()))
    print(report_rule(measure_rule()))
    print(report_traffic(measure_traffic()))
