"""Per-layer numbers for the traced run.

Two sources, both reached from outside the program:

- :func:`scrape` reads the live tier after a traced window through its
  public ops (``metrics``, ``describe``, ``health``, ``checkpoint``,
  ``evaluate``) on the router and straight on each replica;
- :func:`replay` pushes the frames the window sent through each
  layer's public function in this process (protocol codec,
  ``partition_batch``, ``RouterWal.append_entry``,
  ``Profiler.ingest_arrays``, ``FlatProfile.apply_arrays``) and times
  one call per frame or sub-batch.
"""

from __future__ import annotations

import io
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.api.facade import Profiler
from repro.cluster import RouterWal, partition_capacity
from repro.cluster.merge import partition_batch
from repro.core.flat import FlatProfile
from repro.core.profile import net_arrays
from repro.server.client import AsyncProfileClient
from repro.server.protocol import encode_binary_ingest, read_binary_frame_from

from perfbench.tier import REPLICAS, Tier, cpu_used
from perfbench.workloads import DASHBOARD, Frames


def _hist(snapshot: dict, name: str) -> dict:
    return snapshot["metrics"]["histograms"][name]


async def _median_ms(call, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        await call()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


async def scrape(tier: Tier, window_events: int, cpu: dict) -> dict:
    """Per-layer numbers of a tier at the end of a traced window.

    ``cpu`` holds per-role CPU seconds at the window's start and end.
    """
    out = {}
    mev = window_events / 1e6
    for role in ("router", "replica", "standby"):
        used = cpu_used(cpu["start"], cpu["end"], role)
        out[f"{role}.cpu_s_per_mevent"] = used / mev
    out["standby.restarts"] = tier.standby_restarts
    router = await AsyncProfileClient.connect(port=tier.port)
    try:
        snap = await router.metrics()
        info = await router.describe()
        health = await router.health()
        server = info["server"]
        for name, key in (
            ("server.queue.wait_ms", "router.queue_wait_ms"),
            ("router.fanout.rtt_ms", "router.fanout_rtt_ms"),
            ("router.wal.fsync_ms", "router.wal_fsync_ms"),
        ):
            pct = _hist(snap, name)["percentiles"]
            out[f"{key}.p50"] = pct["p50"]
            out[f"{key}.p99"] = pct["p99"]
        flush = _hist(snap, "server.flush.events")
        out["router.flush_events.mean"] = flush["sum"] / flush["count"]
        out["router.flushes"] = server["flushes"]
        out["router.replica_batches"] = (
            server["cluster_replica_batches"] / server["flushes"]
        )
        out["router.snapshots"] = server["cluster_snapshots"]
        out["standby.lag_seq"] = max(s["lag"] for s in health["standbys"])
        router_q = await _median_ms(lambda: router.evaluate(*DASHBOARD), 15)
    finally:
        await router.aclose()

    waits, means, flushes, events = [], [], [], []
    for p, port in enumerate(tier.replica_ports()):
        replica = await AsyncProfileClient.connect(port=port)
        try:
            snap = await replica.metrics()
            rinfo = (await replica.describe())["server"]
            wait = _hist(snap, "server.queue.wait_ms")
            waits.append(wait["percentiles"]["p50"])
            flush = _hist(snap, "server.flush.events")
            means.append(flush["sum"] / flush["count"])
            flushes.append(rinfo["flushes"])
            events.append(rinfo["wire_events"])
            if p == 0:
                replica_q = await _median_ms(
                    lambda: replica.evaluate(*DASHBOARD), 15
                )
                t0 = perf_counter()
                state = await replica.checkpoint()
                out["replica.checkpoint_ms"] = (perf_counter() - t0) * 1e3
        finally:
            await replica.aclose()
    out["replica.queue_wait_ms.p50"] = statistics.mean(waits)
    out["replica.flush_events.mean"] = statistics.mean(means)
    out["replica.flushes"] = sum(flushes)
    out["router.partition_skew"] = max(events) / statistics.mean(events)
    out["router.query_tax_ms"] = router_q - replica_q
    profiler = Profiler.from_state(state)
    out["api.evaluate.ms"] = _evaluate_ms(profiler)
    return out


def _evaluate_ms(profiler: Profiler, reps: int = 15) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        profiler.evaluate(*DASHBOARD)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def evaluate_ms(frames: list[Frames]) -> float:
    """Dashboard time on an in-process profiler holding ``frames``."""
    profiler = Profiler.open(frames[0].universe, backend="flat")
    for f in frames:
        profiler.ingest_arrays(f.ids, f.deltas)
    return _evaluate_ms(profiler)


def track(frames: list[Frames], events: int = 200_000) -> dict:
    """ns per event of ``track_statistic`` at mode and median rank."""
    m = frames[0].universe
    out = {}
    for label, rank in (("mode", m - 1), ("median", (m - 1) // 2)):
        busy = n = 0
        for f in frames:
            ids = f.ids[:events].tolist()
            adds = (f.deltas[:events] > 0).tolist()
            p = FlatProfile(m)
            t0 = perf_counter()
            p.track_statistic(ids, adds, rank)
            busy += perf_counter() - t0
            n += len(ids)
        out[f"core.track_{label}.ns_per_event"] = busy / n * 1e9
    return out


def replay(frames: Frames, sent: list[int], work: Path) -> dict:
    """Time each layer's public function on the frames a window sent."""
    m = frames.universe
    enc = dec = part = jour = api = core = 0.0
    sub_batches = 0
    wal_events = 0
    caps = [partition_capacity(m, p, REPLICAS) for p in range(REPLICAS)]
    apis = [Profiler.open(c, backend="flat") for c in caps]
    cores = [FlatProfile(c) for c in caps]
    with tempfile.TemporaryDirectory(prefix="wal-", dir=work) as wal_dir:
        wal = RouterWal(wal_dir)
        for seq, idx in enumerate(sent, 1):
            ids, deltas = frames[idx]
            t0 = perf_counter()
            buf = encode_binary_ingest(seq, ids, deltas)
            t1 = perf_counter()
            batch = read_binary_frame_from(io.BytesIO(buf).read).payload
            t2 = perf_counter()
            parts, _ = partition_batch(batch, REPLICAS, m)
            t3 = perf_counter()
            for p, (lids, ldeltas) in parts.items():
                wal.append_entry(p, seq, lids, ldeltas)
            t4 = perf_counter()
            enc += t1 - t0
            dec += t2 - t1
            part += t3 - t2
            jour += t4 - t3
            wal_events += len(ids)
            for p, (lids, ldeltas) in parts.items():
                t0 = perf_counter()
                apis[p].ingest_arrays(lids, ldeltas)
                t1 = perf_counter()
                keys, sums = net_arrays(lids, ldeltas)
                cores[p].apply_arrays(keys, sums)
                t2 = perf_counter()
                api += t1 - t0
                core += t2 - t1
                sub_batches += 1
        wal.sync()
        wal_bytes = wal.stats["bytes"]
        wal.close()
    n = len(sent)
    return {
        "protocol.encode_ingest.us_per_frame": enc / n * 1e6,
        "protocol.decode_ingest.us_per_frame": dec / n * 1e6,
        "router.partition.us_per_frame": part / n * 1e6,
        "journal.append.us_per_frame": jour / n * 1e6,
        "journal.bytes_per_event": wal_bytes / wal_events,
        "api.ingest_arrays.us_per_call": api / sub_batches * 1e6,
        "core.apply_arrays.us_per_call": core / sub_batches * 1e6,
    }
