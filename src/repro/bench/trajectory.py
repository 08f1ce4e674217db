"""The canonical perf trajectory: ``python -m repro.bench trajectory``.

One committed artifact — ``BENCH_core.json`` at the repo root — records
events/sec for the core execution paths so every PR can see (and
CI can gate) how the hot paths move over time:

- ``single_event_mode`` — the paper's figure-3 workload (apply each
  event, keep the mode frequency current) on streams 1-3:
  :class:`~repro.core.profile.SProfile` driven through its canonical
  per-event loop vs :class:`~repro.core.flat.FlatProfile` driven
  through its fused :meth:`~repro.core.flat.FlatProfile.track_statistic`
  loop;
- ``batch_ingest`` — figure-4-style bulk ingestion: batches of 10k
  events over a small universe, ``add_many`` on both engines (the flat
  engine takes its NumPy-vectorized wholesale rebuild), plus the flat
  engine on its ``int64`` array storage (``array_engine=True``) against
  its list storage;
- ``sharded_batch`` — the same batches through
  :class:`~repro.engine.sharding.ShardedProfiler` with block-object vs
  flat shard cores;
- ``fused_plan`` — the dashboard read (mode + top-k + histogram +
  quantiles + support) as one fused
  :meth:`~repro.api.Profiler.evaluate` walk vs the equivalent
  standalone calls, on the sharded engine with flat cores (where each
  standalone statistic would otherwise pay its own per-shard merge);
- ``serve`` — the TCP serving stack of :mod:`repro.server` at client
  counts {1, 4, 16}: the micro-batching pipeline (wire batches +
  cross-client coalescing into vectorized ``ingest`` calls) vs
  unbatched one-event-per-frame ingestion, recording sustained
  events/sec and client-observed p50/p99 ack latency;
- ``cluster`` — the replicated tier of :mod:`repro.cluster`: a router
  (journal + vectorized partitioning + fan-out + ack merge) fronting
  1/2/4 replica subprocesses vs the same engine served directly, at
  bulk-transfer wire batching.  The payload records the machine's CPU
  count: a replica count the machine cannot actually host measures IPC
  overhead, not parallelism, so per-replica ratios gate only within
  the measuring machine's core budget.  Its nested ``failover`` block
  times the warm-standby machinery: the serving gap of a lease handoff
  (standby promotion, WAL-primed) against a cold restore of the same
  state, and the ingest throughput retained while a live ``rescale``
  migration double-writes the stream.

Measurement protocol: per path the contenders are timed in
*interleaved* rounds (A, B, A, B, ...) and the **minimum** time per
contender is kept — on a noisy box additive scheduler/thermal noise
only ever slows a run down, so min-of-rounds is the robust estimator
of the true cost, and interleaving keeps slow machine phases from
landing on one contender only.  Streams are deterministic in the seed
(see :mod:`repro.bench.workloads`), so the workload bytes are identical
run to run and engine to engine.

Regression gating compares *speedup ratios*, not absolute events/sec:
ratios of two loops measured in the same process minutes apart are
stable across machines, absolute throughput is not.  ``--check`` fails
(exit 1) when a ratio fell more than ``--tolerance`` (default 30%)
below the committed baseline, and warns instead when there is no
baseline yet (first run) or ``--warn-only`` is given.  The baseline
is read before the run, and ``--out`` is never written over the
baseline it was checked against.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.api import Profiler, Query
from repro.bench.reporting import percentiles
from repro.bench.workloads import build_stream
from repro.core.flat import FlatProfile
from repro.core.profile import SProfile
from repro.engine.sharding import ShardedProfiler

__all__ = [
    "TRAJECTORY_VERSION",
    "run_trajectory",
    "check_regressions",
    "main",
]

#: Bump when the BENCH_core.json layout changes incompatibly.
TRAJECTORY_VERSION = 1

#: Workload sizes per scale.  ``quick`` is the CI smoke scale.
SCALES = {
    "full": {
        "single_n": 200_000,
        "single_m": 10_000,
        "batch_size": 10_000,
        "batch_count": 20,
        "batch_m": 2_000,
        # Sized so the per-shard sub-batches stay in the dense-rebuild
        # regime (the regime the batch_m workload measures unsharded).
        "shard_m": 8_000,
        "shards": 4,
        "plan_n": 100_000,
        "plan_m": 10_000,
        "plan_reps": 200,
        "serve_m": 4_096,
        "serve_events": 24_000,
        "serve_clients": (1, 4, 16),
        "serve_wire": 64,
        "serve_batch_max": 512,
        # Codec duel: bulk-transfer frames, sized so per-frame costs
        # amortize and the per-event codec work dominates.
        "serve_codec_events": 262_144,
        "serve_codec_wire": 2_048,
        # Replicated tier: bulk frames through the router (journal +
        # partition + fan-out + merge) vs one directly served engine.
        "cluster_m": 4_096,
        "cluster_events": 65_536,
        "cluster_wire": 1_024,
        "cluster_batch_max": 1_024,
        "cluster_snapshot_every": 16,
    },
    "quick": {
        "single_n": 40_000,
        "single_m": 4_000,
        "batch_size": 10_000,
        "batch_count": 5,
        "batch_m": 2_000,
        "shard_m": 8_000,
        "shards": 4,
        "plan_n": 20_000,
        "plan_m": 4_000,
        "plan_reps": 50,
        "serve_m": 4_096,
        "serve_events": 6_400,
        "serve_clients": (1, 4, 16),
        "serve_wire": 64,
        "serve_batch_max": 512,
        "serve_codec_events": 131_072,
        "serve_codec_wire": 2_048,
        "cluster_m": 4_096,
        "cluster_events": 16_384,
        "cluster_wire": 1_024,
        "cluster_batch_max": 1_024,
        "cluster_snapshot_every": 8,
    },
}

_STREAMS = ("stream1", "stream2", "stream3")

_DASHBOARD = (
    Query.mode(),
    Query.top_k(10),
    Query.histogram(),
    Query.quantile(0.5),
    Query.quantile(0.99),
    Query.support(0),
)


def _interleaved_min(timers: dict, rounds: int) -> dict:
    """Run every timer ``rounds`` times, interleaved; keep the min.

    The contender order flips every round so neither side
    systematically inherits the other's thermal/cache wake (on a
    single-core box the second timer of a pair tends to run in the
    post-burst state).  Cyclic GC is paused around each timed call
    (the pytest-benchmark convention) so collection pauses land
    between measurements, not inside them.
    """
    best = {name: math.inf for name in timers}
    order = list(timers)
    for round_no in range(rounds):
        sequence = order if round_no % 2 == 0 else order[::-1]
        for name in sequence:
            gc.collect()
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                best[name] = min(best[name], timers[name]())
            finally:
                if was_enabled:
                    gc.enable()
    return best


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Path timers
# ----------------------------------------------------------------------


def _single_event_mode(cfg: dict, rounds: int, seed: int) -> dict:
    """Figure-3 workload: per-event update + mode upkeep."""
    n, m = cfg["single_n"], cfg["single_m"]
    streams = {}
    for name in _STREAMS:
        stream = build_stream(name, n, m, seed=seed)
        id_list = stream.ids.tolist()
        add_list = stream.adds.tolist()

        def time_sprofile(id_list=id_list, add_list=add_list):
            p = SProfile(m)
            add = p.add
            remove = p.remove
            mode = p.max_frequency
            start = perf_counter()
            for x, is_add in zip(id_list, add_list):
                if is_add:
                    add(x)
                else:
                    remove(x)
                mode()
            return perf_counter() - start

        def time_flat(id_list=id_list, add_list=add_list):
            p = FlatProfile(m)
            start = perf_counter()
            p.track_statistic(id_list, add_list, m - 1)
            return perf_counter() - start

        best = _interleaved_min(
            {"sprofile": time_sprofile, "flat": time_flat}, rounds
        )
        streams[name] = {
            "sprofile_eps": n / best["sprofile"],
            "flat_eps": n / best["flat"],
            "speedup": best["sprofile"] / best["flat"],
        }
    return {
        "workload": f"fig-3 mode upkeep, n={n}, m={m}",
        "streams": streams,
        "geomean_speedup": _geomean(
            s["speedup"] for s in streams.values()
        ),
    }


def _batch_ingest(cfg: dict, rounds: int, seed: int) -> dict:
    """Figure-4-style bulk ingestion: add_many in 10k-event batches."""
    size, count, m = cfg["batch_size"], cfg["batch_count"], cfg["batch_m"]
    stream = build_stream("stream1", size * count, m, seed=seed)
    # Batches arrive as ndarray slices — the native format of this
    # repo's stream generators (streams/generators.py); each engine
    # ingests it through its own add_many.
    batches = [
        stream.ids[i * size : (i + 1) * size] for i in range(count)
    ]
    n_events = size * count

    def time_engine(factory):
        def timer():
            p = factory(m)
            add_many = p.add_many
            start = perf_counter()
            for batch in batches:
                add_many(batch)
            return perf_counter() - start

        return timer

    best = _interleaved_min(
        {
            "sprofile": time_engine(SProfile),
            "flat": time_engine(FlatProfile),
            "array": time_engine(
                lambda m: FlatProfile(m, array_engine=True)
            ),
        },
        rounds,
    )
    return {
        "workload": f"add_many x{count}, batch={size}, m={m}",
        "sprofile_eps": n_events / best["sprofile"],
        "flat_eps": n_events / best["flat"],
        "array_eps": n_events / best["array"],
        "speedup": best["sprofile"] / best["flat"],
        "array_speedup": best["flat"] / best["array"],
    }


def _obs_overhead(cfg: dict, rounds: int, seed: int) -> dict:
    """The observability tax on the facade's hot ingest path.

    The same bulk array batches through ``Profiler.open(...,
    obs=True)`` (live metrics registry: ingest counters, grow events)
    vs ``obs=False`` (the shared no-op singletons).  The committed
    ``overhead`` ratio is disabled-time over enabled-time — 1.0 means
    free, and the regression gate fires when it drops (instrumentation
    got relatively more expensive).  Self-normalizing like
    ``wal_overhead``, so it gates without cpu scoping.
    """
    size, count, m = cfg["batch_size"], cfg["batch_count"], cfg["batch_m"]
    stream = build_stream("stream1", size * count, m, seed=seed)
    batches = [
        stream.ids[i * size : (i + 1) * size] for i in range(count)
    ]
    ones = [batch * 0 + 1 for batch in batches]
    n_events = size * count

    def time_facade(obs):
        def timer():
            with Profiler.open(m, backend="flat", obs=obs) as p:
                ingest_arrays = p.ingest_arrays
                start = perf_counter()
                for ids, deltas in zip(batches, ones):
                    ingest_arrays(ids, deltas)
                return perf_counter() - start

        return timer

    best = _interleaved_min(
        {"obs_on": time_facade(True), "obs_off": time_facade(False)},
        rounds,
    )
    return {
        "workload": (
            f"facade ingest_arrays x{count}, batch={size}, m={m}, "
            f"obs on vs off"
        ),
        "obs_on_eps": n_events / best["obs_on"],
        "obs_off_eps": n_events / best["obs_off"],
        "overhead": best["obs_off"] / best["obs_on"],
    }


def _sharded_batch(cfg: dict, rounds: int, seed: int) -> dict:
    """The same bulk batches through sharded engines (core ablation)."""
    size, count = cfg["batch_size"], cfg["batch_count"]
    m, shards = cfg["shard_m"], cfg["shards"]
    stream = build_stream("stream1", size * count, m, seed=seed)
    batches = [
        stream.ids[i * size : (i + 1) * size] for i in range(count)
    ]
    n_events = size * count

    def time_core(core):
        def timer():
            p = ShardedProfiler(m, n_shards=shards, core=core)
            add_many = p.add_many
            start = perf_counter()
            for batch in batches:
                add_many(batch)
            return perf_counter() - start

        return timer

    best = _interleaved_min(
        {
            "sprofile_cores": time_core("sprofile"),
            "flat_cores": time_core("flat"),
        },
        rounds,
    )
    return {
        "workload": (
            f"sharded add_many x{count}, batch={size}, m={m}, "
            f"shards={shards}"
        ),
        "sprofile_eps": n_events / best["sprofile_cores"],
        "flat_eps": n_events / best["flat_cores"],
        "speedup": best["sprofile_cores"] / best["flat_cores"],
    }


def _fused_plan(cfg: dict, rounds: int, seed: int) -> dict:
    """Dashboard read: one fused walk vs equivalent standalone calls.

    Measured on the sharded engine (flat cores) — fusing matters where
    every standalone statistic would otherwise pay its own merge of the
    per-shard block walks; on one flat profile the standalone calls are
    already O(1)/O(#blocks) pointer reads.
    """
    n, m, reps = cfg["plan_n"], cfg["plan_m"], cfg["plan_reps"]
    shards = cfg["shards"]
    stream = build_stream("stream1", n, m, seed=seed)
    profiler = Profiler.open(m, backend="sharded", shards=shards)
    profiler.ingest(zip(stream.ids.tolist(), stream.adds.tolist()))

    def time_fused():
        evaluate = profiler.evaluate
        start = perf_counter()
        for _ in range(reps):
            evaluate(*_DASHBOARD)
        return perf_counter() - start

    def time_separate():
        start = perf_counter()
        for _ in range(reps):
            profiler.mode()
            profiler.top_k(10)
            profiler.histogram()
            profiler.quantile(0.5)
            profiler.quantile(0.99)
            profiler.support(0)
        return perf_counter() - start

    best = _interleaved_min(
        {"fused": time_fused, "separate": time_separate}, rounds
    )
    return {
        "workload": (
            f"dashboard x{reps} on sharded backend (flat cores), "
            f"n={n}, m={m}, shards={shards}"
        ),
        "fused_plans_per_sec": reps / best["fused"],
        "separate_plans_per_sec": reps / best["separate"],
        "speedup": best["separate"] / best["fused"],
    }


def _serve(cfg: dict, rounds: int, seed: int) -> dict:
    """The serving stack end to end: TCP ingestion under concurrency.

    Two experiments share the harness, at each client count:

    **Micro-batching** (``serve_events`` events, ``serve_wire``
    events/frame):

    - ``unbatched`` — the RPC-per-event serving model: every event is
      its own wire frame *and* its own engine transaction
      (``batch_max=1``);
    - ``batched`` — the micro-batching pipeline: clients ship
      ``serve_wire`` events per frame and the server coalesces frames
      across clients into vectorized ``ingest`` calls of up to
      ``serve_batch_max`` events (group commit: whatever queued while
      the previous flush ran).

    **Codec duel** (``serve_codec_events`` events,
    ``serve_codec_wire`` events/frame):

    - ``codec_json`` — the JSON codec at bulk-transfer knobs: big
      frames so per-frame costs amortize and the per-event codec work
      (client ``json.dumps`` of event lists, server parse + validate +
      dict netting) is what the clock sees;
    - ``binary`` — the negotiated binary codec at the same knobs:
      frames are raw int64 arrays (``np.frombuffer`` decode straight
      into the vectorized array ingest), acks come back as packed
      arrays, and clients ship precomputed array slices — zero
      per-event Python objects end to end.  The served flat engine
      runs ``array_engine=True`` (both codec contenders share it), so
      batch application is vectorized all the way down.

    Clients pipeline in every configuration (a bounded window of
    un-acked frames), so the ratios measure per-event serving cost,
    not round-trip stalls.  Everything — server and clients — shares
    one event loop on one core, which is exactly the regime where
    per-frame overhead dominates; the recorded ack latencies (p50/p99,
    client-side send-to-ack) document the latency price of batching.
    Per client count the payload records ``speedup`` (batched JSON vs
    unbatched JSON, the micro-batching win) and ``binary_speedup``
    (binary vs JSON at identical bulk-transfer batching, the codec
    win); both are regression-gated.
    """
    # Imported here: the serve path is the only trajectory consumer of
    # the serving stack, and ``repro.bench`` stays importable early.
    from repro.server.client import AsyncProfileClient
    from repro.server.service import ProfileServer

    m, n = cfg["serve_m"], cfg["serve_events"]
    counts = tuple(cfg["serve_clients"])
    wire, batch_max = cfg["serve_wire"], cfg["serve_batch_max"]
    codec_n = cfg["serve_codec_events"]
    codec_wire = cfg["serve_codec_wire"]
    stream = build_stream("stream1", max(n, codec_n), m, seed=seed)
    events = list(
        zip(
            stream.ids.tolist(),
            (1 if add else -1 for add in stream.adds.tolist()),
        )
    )
    ids_i64 = np.ascontiguousarray(stream.ids, dtype="<i8")
    deltas_i64 = np.where(stream.adds, 1, -1).astype("<i8")

    async def run_once(
        n_clients, n_events, wire_batch, flush_max, codec
    ):
        profiler = Profiler.open(m, backend="flat", array_engine=True)
        server = ProfileServer(
            profiler,
            batch_max=flush_max,
            queue_size=4096,
        )
        await server.start()
        clients = [
            await AsyncProfileClient.connect(port=server.port, codec=codec)
            for _ in range(n_clients)
        ]
        per = n_events // n_clients
        latencies: list[float] = []
        record = latencies.append
        window = 64 if wire_batch == 1 else max(
            4, 2 * (flush_max // wire_batch)
        )
        binary = codec == "binary"

        async def drive(client, lo, hi):
            inflight = []
            for i in range(lo, hi, wire_batch):
                j = min(i + wire_batch, hi)
                if binary:
                    frame = (ids_i64[i:j], deltas_i64[i:j])
                else:
                    frame = events[i:j]
                t0 = perf_counter()
                fut = await client.ingest(frame, wait=False)
                fut.add_done_callback(
                    lambda _f, t0=t0: record(perf_counter() - t0)
                )
                inflight.append(fut)
                if len(inflight) >= window:
                    await inflight.pop(0)
            for fut in inflight:
                await fut

        start = perf_counter()
        await asyncio.gather(
            *(
                drive(clients[c], c * per, (c + 1) * per)
                for c in range(n_clients)
            )
        )
        elapsed = perf_counter() - start
        for client in clients:
            await client.aclose()
        await server.stop()
        return elapsed, latencies, per * n_clients

    variants = {
        "unbatched": (n, 1, 1, "json"),
        "batched": (n, wire, batch_max, "json"),
        "codec_json": (codec_n, codec_wire, codec_wire, "json"),
        "binary": (codec_n, codec_wire, codec_wire, "binary"),
    }
    keys = [(name, c) for c in counts for name in variants]
    best: dict = {}
    for round_no in range(rounds):
        sequence = keys if round_no % 2 == 0 else keys[::-1]
        for key in sequence:
            n_events, wire_batch, flush_max, codec = variants[key[0]]
            gc.collect()
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                measured = asyncio.run(
                    run_once(
                        key[1],
                        n_events,
                        wire_batch,
                        flush_max,
                        codec,
                    )
                )
            finally:
                if was_enabled:
                    gc.enable()
            if key not in best or measured[0] < best[key][0]:
                best[key] = measured

    clients_out = {}
    for c in counts:
        u_time, u_lat, u_n = best[("unbatched", c)]
        b_time, b_lat, b_n = best[("batched", c)]
        u_eps, b_eps = u_n / u_time, b_n / b_time
        u_p = percentiles(u_lat, (50, 99))
        b_p = percentiles(b_lat, (50, 99))
        clients_out[str(c)] = {
            "unbatched_eps": u_eps,
            "batched_eps": b_eps,
            "speedup": b_eps / u_eps,
            "unbatched_p50_ms": u_p[50] * 1e3,
            "unbatched_p99_ms": u_p[99] * 1e3,
            "batched_p50_ms": b_p[50] * 1e3,
            "batched_p99_ms": b_p[99] * 1e3,
        }
        j_time, j_lat, j_n = best[("codec_json", c)]
        y_time, y_lat, y_n = best[("binary", c)]
        j_eps, y_eps = j_n / j_time, y_n / y_time
        j_p = percentiles(j_lat, (50, 99))
        y_p = percentiles(y_lat, (50, 99))
        clients_out[str(c)].update(
            {
                "codec_json_eps": j_eps,
                "codec_json_p50_ms": j_p[50] * 1e3,
                "codec_json_p99_ms": j_p[99] * 1e3,
                "binary_eps": y_eps,
                "binary_speedup": y_eps / j_eps,
                "binary_p50_ms": y_p[50] * 1e3,
                "binary_p99_ms": y_p[99] * 1e3,
            }
        )
    top = clients_out[str(max(counts))]
    return {
        "workload": (
            f"TCP ingest, m={m}: micro-batched ({n} events, {wire} "
            f"ev/frame, batch_max={batch_max}) vs "
            f"unbatched (1 ev/frame, batch_max=1), plus the binary "
            f"codec vs JSON at bulk-transfer knobs ({codec_n} events, "
            f"{codec_wire} ev/frame), clients={list(counts)}"
        ),
        "events": n,
        "wire_batch": wire,
        "batch_max": batch_max,
        "codec_events": codec_n,
        "codec_wire": codec_wire,
        "clients": clients_out,
        "speedup": top["speedup"],
        "binary_speedup": top["binary_speedup"],
    }


def _cluster(cfg: dict, rounds: int, seed: int, replica_counts) -> dict:
    """The replicated tier end to end: router fan-out vs direct serve.

    One :class:`~repro.cluster.router.ClusterRouter` in this process
    fronts real ``python -m repro.serve`` replica subprocesses (spawned
    once per replica count, outside the timed region, and reused across
    rounds — flat-engine batch application costs the same regardless of
    accumulated state).  The baseline contender is the same engine
    served directly by one in-process :class:`ProfileServer`, driven
    with identical wire frames, so the per-replica-count ``speedup``
    reads as "what the extra hop buys (or costs)": the router pays
    journalling, vectorized partitioning and a second wire hop per
    event, and earns back replica-side engine parallelism only for
    replica counts the machine can host.

    The payload records ``cpus`` and the regression gate compares only
    ``rN`` entries with ``N <= cpus`` — a 1-core box measuring 4
    replicas measures scheduling overhead, not replication.
    ``snapshot_every`` is small
    enough that the timed stream crosses several snapshot cycles, so
    the steady-state price of the recovery machinery (journal append +
    periodic checkpoint + journal truncation) is inside the clock.

    A second router run at the max replica count turns the durable
    write-ahead log on (``journal_dir`` + fsync on every flushed
    micro-batch, the crash-safe configuration the chaos suite gates).
    Its ``wal_overhead`` ratio — WAL throughput over in-memory-journal
    throughput at identical knobs — is the committed price of
    durability; the regression gate fires when it *drops*, i.e. when
    fsync'd acks get relatively more expensive.  Each timed WAL run
    gets a fresh directory so rounds measure steady-state appends, not
    recovery replay of earlier rounds' tapes.
    """
    # Imported here, like the serve path: only this path needs the
    # serving/cluster stack, and ``repro.bench`` stays importable early.
    import tempfile

    from repro.cluster.router import ClusterRouter
    from repro.cluster.standby import StandbyRouter
    from repro.cluster.supervisor import ReplicaSupervisor
    from repro.server.client import AsyncProfileClient
    from repro.server.service import ProfileServer

    m, n = cfg["cluster_m"], cfg["cluster_events"]
    wire = cfg["cluster_wire"]
    batch_max = cfg["cluster_batch_max"]
    snapshot_every = cfg["cluster_snapshot_every"]
    codec = "binary"

    stream = build_stream("stream1", n, m, seed=seed)
    ids_i64 = np.ascontiguousarray(stream.ids, dtype="<i8")
    deltas_i64 = np.where(stream.adds, 1, -1).astype("<i8")

    async def drive(client):
        window = max(4, 2 * (batch_max // wire))
        inflight = []
        start = perf_counter()
        for i in range(0, n, wire):
            j = min(i + wire, n)
            frame = (ids_i64[i:j], deltas_i64[i:j])
            fut = await client.ingest(frame, wait=False)
            inflight.append(fut)
            if len(inflight) >= window:
                await inflight.pop(0)
        for fut in inflight:
            await fut
        return perf_counter() - start

    async def run_direct():
        profiler = Profiler.open(m, backend="flat", array_engine=True)
        server = ProfileServer(
            profiler,
            batch_max=batch_max,
            queue_size=4096,
        )
        await server.start()
        client = await AsyncProfileClient.connect(
            port=server.port, codec=codec
        )
        elapsed = await drive(client)
        await client.aclose()
        await server.stop()
        profiler.close()
        return elapsed

    async def run_cluster(supervisor, journal_dir=None):
        router = ClusterRouter(
            m,
            supervisor=supervisor,
            snapshot_every=snapshot_every,
            journal_dir=journal_dir,
            port=0,
            batch_max=batch_max,
        )
        await router.start()
        client = await AsyncProfileClient.connect(
            port=router.port, codec=codec
        )
        elapsed = await drive(client)
        await client.aclose()
        await router.stop()
        return elapsed

    serve_args = ["--batch-max", str(batch_max), "--array-engine"]

    supervisors: dict[int, ReplicaSupervisor] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as tmp:
        try:
            for r in replica_counts:
                supervisor = ReplicaSupervisor(
                    m,
                    r,
                    workdir=Path(tmp) / f"r{r}",
                    backend="flat",
                    codec=codec,
                    serve_args=serve_args,
                )
                asyncio.run(supervisor.start())
                supervisors[r] = supervisor
            timers = {"direct": lambda: asyncio.run(run_direct())}
            for r, supervisor in supervisors.items():
                timers[f"cluster_r{r}"] = (
                    lambda supervisor=supervisor: asyncio.run(
                        run_cluster(supervisor)
                    )
                )
            # The durability duel: the max-replica router again, WAL
            # on.  A fresh journal directory per round keeps recovery
            # replay of previous rounds out of the clock.
            max_r = max(replica_counts)
            wal_round = iter(range(10**9))

            def run_wal():
                wal_dir = Path(tmp) / f"wal-{next(wal_round)}"
                return asyncio.run(
                    run_cluster(supervisors[max_r], journal_dir=wal_dir)
                )

            timers["cluster_wal"] = run_wal
            best = _interleaved_min(timers, rounds)

            # -- failover + live-rescale duel --------------------------
            # Both numbers are self-normalizing ratios (two measurements
            # of the same machine minutes apart), like wal_overhead, so
            # they gate without cpu scoping.
            prime_n = min(n, 8 * wire)

            async def drive_prefix(client, upto):
                for i in range(0, upto, wire):
                    j = min(i + wire, upto)
                    await client.ingest((ids_i64[i:j], deltas_i64[i:j]))

            async def first_ack(port):
                probe = await AsyncProfileClient.connect(
                    port=port, codec=codec
                )
                await probe.ingest((ids_i64[:wire], deltas_i64[:wire]))
                await probe.aclose()

            async def run_promotion(supervisor, wal_dir):
                """One handoff, warm then cold, on the same state.

                Primes a WAL through a leased primary, then times two
                serving gaps, each from initiating the serving
                router's drain to the next router's first ack: the
                warm one (a live-tailing standby promotes) and the
                cold one (a fresh router boots on the same WAL: load,
                snapshot restore, replay).
                """
                primary = ClusterRouter(
                    m,
                    supervisor=supervisor,
                    snapshot_every=snapshot_every,
                    journal_dir=wal_dir,
                    port=0,
                    batch_max=batch_max,
                    lease_interval=0.1,
                )
                await primary.start()
                client = await AsyncProfileClient.connect(
                    port=primary.port, codec=codec
                )
                await drive_prefix(client, prime_n)
                await client.aclose()
                standby = StandbyRouter(
                    m,
                    wal_dir,
                    endpoints=supervisor.endpoints,
                    lease_timeout=30.0,
                    poll_interval=0.02,
                    snapshot_every=snapshot_every,
                    port=0,
                    batch_max=batch_max,
                )
                await standby.start()
                down_start = perf_counter()
                await primary.stop()  # releases the lease
                await standby.wait_promoted(timeout=60.0)
                await first_ack(standby.router.port)
                down_s = perf_counter() - down_start
                cold_start = perf_counter()
                await standby.stop()  # releases the lease
                cold = ClusterRouter(
                    m,
                    supervisor=supervisor,
                    snapshot_every=snapshot_every,
                    journal_dir=wal_dir,
                    port=0,
                    batch_max=batch_max,
                )
                await cold.start()
                await first_ack(cold.port)
                cold_s = perf_counter() - cold_start
                await cold.stop()
                return down_s, cold_s

            async def run_rescale_duel(supervisor, wal_dir, target):
                """Steady ingest, then the same stream again with a
                ``rescale`` migration double-writing underneath it."""
                router = ClusterRouter(
                    m,
                    supervisor=supervisor,
                    snapshot_every=snapshot_every,
                    journal_dir=wal_dir,
                    port=0,
                    batch_max=batch_max,
                )
                await router.start()
                client = await AsyncProfileClient.connect(
                    port=router.port, codec=codec
                )
                steady_s = await drive(client)
                control = await AsyncProfileClient.connect(
                    port=router.port, codec=codec
                )
                migration = asyncio.create_task(control.rescale(target))
                migrating_s = await drive(client)
                await migration
                await control.aclose()
                await client.aclose()
                await router.stop()
                return steady_s, migrating_s

            fail_rounds = max(1, min(rounds, 3))
            promo = []
            fo_sup = ReplicaSupervisor(
                m,
                max_r,
                workdir=Path(tmp) / "failover",
                backend="flat",
                codec=codec,
                serve_args=serve_args,
            )
            asyncio.run(fo_sup.start())
            try:
                for k in range(fail_rounds):
                    promo.append(
                        asyncio.run(
                            run_promotion(fo_sup, Path(tmp) / f"fo-{k}")
                        )
                    )
            finally:
                fo_sup.stop()
            duels = []
            rs_sup = ReplicaSupervisor(
                m,
                max_r,
                workdir=Path(tmp) / "rescale",
                backend="flat",
                codec=codec,
                serve_args=serve_args,
            )
            asyncio.run(rs_sup.start())
            try:
                current = max_r
                for k in range(fail_rounds):
                    target = max_r + 1 if current == max_r else max_r
                    duels.append(
                        asyncio.run(
                            run_rescale_duel(
                                rs_sup, Path(tmp) / f"rs-{k}", target
                            )
                        )
                    )
                    current = target
            finally:
                rs_sup.stop()
        finally:
            for supervisor in supervisors.values():
                supervisor.stop()

    # Min-of-rounds per contender, like every other duel.
    down_s = min(pair[0] for pair in promo)
    cold_s = min(pair[1] for pair in promo)
    steady_s, migrating_s = min(
        duels, key=lambda pair: pair[1] / pair[0]
    )
    failover = {
        "workload": (
            f"lease handoff, warm standby vs cold restore (WAL "
            f"primed with {prime_n} events) + "
            f"rescale r{max_r}<->r{max_r + 1} double-write duel "
            f"({n} events per leg, fsync WAL on)"
        ),
        "prime_events": prime_n,
        # The serving gap of a promotion: drain-initiate -> first ack
        # from the promoted standby.  Raw milliseconds for humans; the
        # gate uses the self-normalized ratio below.
        "promotion_ms": down_s * 1e3,
        # The same handoff done cold: drain-initiate -> first ack from
        # a fresh router booted on the same WAL.
        "cold_restore_ms": cold_s * 1e3,
        # How many times faster the warm promotion (fence + sealed-tail
        # replay + replica restore + bind + first ack) is than a cold
        # restore of the same state.  Gated: a drop means promotion
        # got slower relative to restoring the state it hands over —
        # ingest speed enters neither leg.
        "promotion_speed": cold_s / down_s,
        "steady_eps": n / steady_s,
        "migrating_eps": n / migrating_s,
        # Throughput retained while a live rescale double-writes the
        # stream into the staged generation.  Gated: a drop means the
        # handoff epoch got more expensive for foreground ingest.
        "migration_overhead": steady_s / migrating_s,
    }

    direct_eps = n / best["direct"]
    replicas = {}
    for r in replica_counts:
        eps = n / best[f"cluster_r{r}"]
        replicas[str(r)] = {"eps": eps, "speedup": eps / direct_eps}
    wal_eps = n / best["cluster_wal"]
    return {
        "workload": (
            f"replicated TCP ingest, m={m}: router + replica "
            f"subprocesses vs direct serve ({n} events, {wire} "
            f"ev/frame, batch_max={batch_max}, "
            f"snapshot_every={snapshot_every}, codec={codec}, "
            f"replicas={sorted(replica_counts)}) + fsync WAL duel "
            f"at r{max_r}"
        ),
        "events": n,
        "wire_batch": wire,
        "batch_max": batch_max,
        "snapshot_every": snapshot_every,
        "codec": codec,
        "cpus": os.cpu_count() or 1,
        "max_replicas": max_r,
        "direct_eps": direct_eps,
        "replicas": replicas,
        "speedup": replicas[str(max_r)]["speedup"],
        # Durability price at max replicas: throughput retained with
        # the fsync'd WAL on.  Gated — a drop means acked-write
        # durability got relatively more expensive.
        "wal_eps": wal_eps,
        "wal_overhead": wal_eps / replicas[str(max_r)]["eps"],
        # Warm-standby promotion + live-rescale double-write trajectory
        # (see the failover dict above for per-key semantics).
        "failover": failover,
    }


#: Default replica-count sweep of the ``cluster`` path.
DEFAULT_CLUSTER_REPLICAS = (1, 2, 4)


def run_trajectory(
    scale: str = "full",
    *,
    rounds: int = 5,
    seed: int = 0,
    cluster_replicas=DEFAULT_CLUSTER_REPLICAS,
) -> dict:
    """Measure every path; return the BENCH_core.json payload.

    ``cluster_replicas`` is the replica-count sweep for the ``cluster``
    path (empty/None skips it — it spawns real serve subprocesses, so
    headless boxes without the package importable by child processes
    can opt out)."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}")
    cfg = SCALES[scale]
    paths = {
        "single_event_mode": _single_event_mode(cfg, rounds, seed),
        "batch_ingest": _batch_ingest(cfg, rounds, seed),
        "obs": _obs_overhead(cfg, rounds, seed),
        "sharded_batch": _sharded_batch(cfg, rounds, seed),
        "fused_plan": _fused_plan(cfg, rounds, seed),
        "serve": _serve(cfg, rounds, seed),
    }
    if cluster_replicas:
        paths["cluster"] = _cluster(
            cfg, rounds, seed, tuple(sorted(set(cluster_replicas)))
        )
    return {
        "version": TRAJECTORY_VERSION,
        "generated_with": "python -m repro.bench trajectory",
        "scale": scale,
        "rounds": rounds,
        "seed": seed,
        "python": platform.python_version(),
        "config": cfg,
        "paths": paths,
    }


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------


def _speedup_entries(result: dict):
    """Yield ``(scale-qualified dotted_key, speedup)`` for every ratio
    in a payload.

    Keys are prefixed with the payload's scale (``full.…`` /
    ``quick.…``) so a quick CI run is only ever gated against the
    baseline's quick-scale section — ratios shift systematically with
    workload size, so cross-scale comparison would eat into the
    tolerance for no real regression.  A combined payload (scale
    ``"both"``, as committed in ``BENCH_core.json``) yields both
    sections.
    """
    if result.get("scale") == "both":
        yield from _speedup_entries(
            {"scale": "full", "paths": result.get("paths", {})}
        )
        yield from _speedup_entries(result.get("quick", {}))
        return
    prefix = result.get("scale", "full")
    paths = result.get("paths", {})
    for path_name, path in paths.items():
        # Sweep paths gate ONLY through their per-count keys: the
        # headline "speedup" means "at max(sweep)", so two runs with
        # different sweeps would compare incomparable numbers under
        # one key.
        cpus = path.get("cpus")
        if (
            "speedup" in path
            and "clients" not in path
            and "replicas" not in path
        ):
            yield f"{prefix}.{path_name}.speedup", path["speedup"]
        # The flat engine's int64 array storage vs its list storage
        # (batch_ingest), measured in the same interleaved rounds.
        if "array_speedup" in path:
            yield (
                f"{prefix}.{path_name}.array.speedup",
                path["array_speedup"],
            )
        if "geomean_speedup" in path:
            yield (
                f"{prefix}.{path_name}.geomean_speedup",
                path["geomean_speedup"],
            )
        for stream, entry in path.get("streams", {}).items():
            yield (
                f"{prefix}.{path_name}.{stream}.speedup",
                entry["speedup"],
            )
        # Replica-sweep paths (cluster) gate per replica count, only
        # within the machine's core budget — replicas are real
        # subprocesses, so counts beyond the cores measure scheduling
        # overhead, not replication.
        for r, entry in path.get("replicas", {}).items():
            if cpus is not None and int(r) > cpus:
                continue
            yield (
                f"{prefix}.{path_name}.r{r}.speedup",
                entry["speedup"],
            )
        # The durability ratio (fsync'd-WAL router vs in-memory-journal
        # router at identical knobs).  Self-normalizing — both sides of
        # the ratio share the machine's scheduling noise — so it gates
        # without cpu scoping.
        if "wal_overhead" in path:
            yield f"{prefix}.{path_name}.wal_overhead", path["wal_overhead"]
        # The observability tax (no-op-instrumented ingest vs live
        # registry at identical knobs) — self-normalizing, same gating
        # story as wal_overhead.
        if "overhead" in path:
            yield f"{prefix}.{path_name}.overhead", path["overhead"]
        # Failover ratios (promotion speed vs a cold restore of the
        # same state; ingest throughput retained under a
        # double-writing rescale migration).  Both self-normalizing,
        # so no cpu scoping.
        failover = path.get("failover")
        if failover:
            yield (
                f"{prefix}.{path_name}.failover.promotion_speed",
                failover["promotion_speed"],
            )
            yield (
                f"{prefix}.{path_name}.failover.migration_overhead",
                failover["migration_overhead"],
            )
        # Client-sweep paths (serve) gate per client count, like the
        # replica sweep — the headline "speedup" means "at max(sweep)".
        # Concurrency here is asyncio, not cores, so no cpu scoping.
        for c, entry in path.get("clients", {}).items():
            yield (
                f"{prefix}.{path_name}.c{c}.speedup",
                entry["speedup"],
            )
            # The codec ratio (binary vs JSON at the bulk-transfer
            # codec-duel knobs) gates under its own key family.
            if "binary_speedup" in entry:
                yield (
                    f"{prefix}.{path_name}.binary.c{c}.speedup",
                    entry["binary_speedup"],
                )


def check_regressions(
    current: dict, baseline: dict, tolerance: float = 0.30
) -> list[str]:
    """Compare speedup ratios against a baseline payload.

    Returns a list of human-readable regression messages (empty: pass).
    Only scale-qualified keys present in *both* payloads are compared,
    so scale changes or new paths never fail the gate spuriously.
    """
    base = dict(_speedup_entries(baseline))
    problems = []
    for key, value in _speedup_entries(current):
        expected = base.get(key)
        if expected is None:
            continue
        floor = expected * (1.0 - tolerance)
        if value < floor:
            problems.append(
                f"{key}: speedup {value:.2f}x fell below "
                f"{floor:.2f}x (baseline {expected:.2f}x - {tolerance:.0%})"
            )
    return problems


def _format_summary(result: dict) -> str:
    lines = [
        f"perf trajectory (scale={result['scale']}, "
        f"rounds={result['rounds']}, python {result['python']})"
    ]
    paths = result["paths"]
    single = paths["single_event_mode"]
    lines.append(f"  single-event mode upkeep   [{single['workload']}]")
    for name, entry in single["streams"].items():
        lines.append(
            f"    {name}: sprofile {entry['sprofile_eps'] / 1e6:.2f}M ev/s"
            f"  flat {entry['flat_eps'] / 1e6:.2f}M ev/s"
            f"  -> {entry['speedup']:.2f}x"
        )
    lines.append(
        f"    geomean speedup: {single['geomean_speedup']:.2f}x"
    )
    for key, label in (
        ("batch_ingest", "batch ingest"),
        ("sharded_batch", "sharded batch"),
    ):
        entry = paths[key]
        lines.append(
            f"  {label:<26} sprofile {entry['sprofile_eps'] / 1e6:.2f}M"
            f"  flat {entry['flat_eps'] / 1e6:.2f}M ev/s"
            f"  -> {entry['speedup']:.2f}x   [{entry['workload']}]"
        )
    batch = paths["batch_ingest"]
    lines.append(
        f"  {'batch ingest, array':<26} list "
        f"{batch['flat_eps'] / 1e6:.2f}M  array "
        f"{batch['array_eps'] / 1e6:.2f}M ev/s"
        f"  -> {batch['array_speedup']:.2f}x"
    )
    if "obs" in paths:
        obs = paths["obs"]
        lines.append(
            f"  obs overhead               on "
            f"{obs['obs_on_eps'] / 1e6:.2f}M  off "
            f"{obs['obs_off_eps'] / 1e6:.2f}M ev/s"
            f"  -> {obs['overhead']:.2f}x   [{obs['workload']}]"
        )
    plan = paths["fused_plan"]
    lines.append(
        f"  fused plan                 separate "
        f"{plan['separate_plans_per_sec']:.0f}/s  fused "
        f"{plan['fused_plans_per_sec']:.0f}/s"
        f"  -> {plan['speedup']:.2f}x   [{plan['workload']}]"
    )
    if "serve" in paths:
        srv = paths["serve"]
        lines.append(f"  serve (micro-batching)     [{srv['workload']}]")
        for c, entry in sorted(
            srv["clients"].items(), key=lambda kv: int(kv[0])
        ):
            binary = (
                f"  codec duel: json "
                f"{entry['codec_json_eps'] / 1e3:.1f}k ev/s  binary "
                f"{entry['binary_eps'] / 1e3:.1f}k ev/s "
                f"(p50 {entry['binary_p50_ms']:.2f}ms, "
                f"p99 {entry['binary_p99_ms']:.2f}ms) "
                f"-> {entry['binary_speedup']:.2f}x"
            )
            lines.append(
                f"    c{c:>2}: unbatched "
                f"{entry['unbatched_eps'] / 1e3:.1f}k ev/s "
                f"(p50 {entry['unbatched_p50_ms']:.2f}ms, "
                f"p99 {entry['unbatched_p99_ms']:.2f}ms)  batched "
                f"{entry['batched_eps'] / 1e3:.1f}k ev/s "
                f"(p50 {entry['batched_p50_ms']:.2f}ms, "
                f"p99 {entry['batched_p99_ms']:.2f}ms)"
                f"  -> {entry['speedup']:.2f}x{binary}"
            )
    if "cluster" in paths:
        clu = paths["cluster"]
        sweep = "  ".join(
            f"r{r} {entry['eps'] / 1e3:.1f}k ({entry['speedup']:.2f}x)"
            for r, entry in sorted(
                clu["replicas"].items(), key=lambda kv: int(kv[0])
            )
        )
        wal = ""
        if "wal_overhead" in clu:
            wal = (
                f"  wal {clu['wal_eps'] / 1e3:.1f}k "
                f"({clu['wal_overhead']:.2f}x of r{clu['max_replicas']})"
            )
        lines.append(
            f"  cluster (replicated tier)  direct "
            f"{clu['direct_eps'] / 1e3:.1f}k ev/s  {sweep}{wal}"
            f"   [{clu['workload']}, cpus={clu['cpus']}]"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench trajectory",
        description="Measure the canonical core perf trajectory.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale (seconds instead of a minute)",
    )
    parser.add_argument(
        "--scale",
        choices=("full", "quick", "both"),
        default=None,
        help="workload scale; 'both' measures full AND quick and emits "
        "a combined payload (what the committed baseline uses, so "
        "either scale can be regression-gated against it)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="interleaved timing rounds per path (min is kept)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cluster-replicas",
        metavar="N[,N...]",
        default=",".join(str(r) for r in DEFAULT_CLUSTER_REPLICAS),
        help="replica-count sweep for the cluster path "
        "(comma-separated; '0' or '' skips the path)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_core.json",
        help="write the JSON payload here ('-' for stdout only)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare speedup ratios against a committed baseline JSON",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed relative drop per ratio before --check fails",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions without failing the run",
    )
    args = parser.parse_args(argv)

    replicas = tuple(
        int(r)
        for r in str(args.cluster_replicas).split(",")
        if r.strip() and int(r) > 0
    )

    # Read the baseline before anything is written: with --out on the
    # same path, the run would otherwise be gated against itself.
    baseline = None
    if args.check:
        baseline_path = Path(args.check)
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
        else:
            print(
                f"no baseline at {baseline_path} yet — first run, "
                f"skipping the regression gate",
                file=sys.stderr,
            )

    scale = args.scale or ("quick" if args.quick else "full")
    if scale == "both":
        result = run_trajectory(
            "full",
            rounds=args.rounds,
            seed=args.seed,
            cluster_replicas=replicas,
        )
        print(_format_summary(result))
        quick = run_trajectory(
            "quick",
            rounds=args.rounds,
            seed=args.seed,
            cluster_replicas=replicas,
        )
        print(_format_summary(quick))
        result["scale"] = "both"
        result["quick"] = quick
    else:
        result = run_trajectory(
            scale,
            rounds=args.rounds,
            seed=args.seed,
            cluster_replicas=replicas,
        )
        print(_format_summary(result))

    problems = []
    if baseline is not None:
        problems = check_regressions(result, baseline, args.tolerance)
    failed = bool(problems) and not args.warn_only

    if args.out == "-":
        json.dump(result, sys.stdout, indent=2)
        print()
    elif (
        baseline is not None
        and Path(args.out).resolve() == Path(args.check).resolve()
    ):
        print(
            f"{args.out} is the --check baseline: kept it, not this run",
            file=sys.stderr,
        )
    else:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"payload written to {args.out}")

    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    if failed:
        return 1
    if baseline is not None and not problems:
        print(
            f"regression gate passed against {args.check} "
            f"(tolerance {args.tolerance:.0%})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
