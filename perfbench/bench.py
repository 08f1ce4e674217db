"""Measure one workload and report its metrics (see ``run.py``)."""

from __future__ import annotations

import asyncio
import json
import statistics
from pathlib import Path

import numpy as np

from perfbench import embedded, layers, traffic, workloads
from perfbench.tier import Tier, cpu_used

#: Tier launches per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A traced run whose load generator ran later than this at p99 has
#: fallen behind its schedule: its latencies are not scored.
LATE_LIMIT_MS = 100.0
#: Frames replayed in process for the per-layer numbers.
REPLAY_FRAMES = 512

LOADS = {
    "tier_bulk": dict(closed_inflight=8, query_rate=5.0),
    "tier_live": dict(frame_rate=50.0, query_rate=10.0),
}

#: The bounded end-to-end metrics (``--trace 0``).
E2E_UNITS = {
    "ingest_eps": "events/s",
    "cpu_us_per_event": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: What a user of the stack sees, printed by every run.  On a shared
#: 2-CPU machine the latencies spread too far from run to run to carry a
#: bound, so the traced run reports these as ``loadgen.*`` per-layer
#: numbers.
SEEN_UNITS = {
    "ingest_eps": "events/s",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}


def _pct_ms(samples: list, q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1e3


def _seen(eps, ack_s, query_s) -> dict:
    return {
        "ingest_eps": eps,
        "ack_p50_ms": _pct_ms(ack_s, 50),
        "ack_p99_ms": _pct_ms(ack_s, 99),
        "query_p50_ms": _pct_ms(query_s, 50),
        "query_p90_ms": _pct_ms(query_s, 90),
    }


class Outcome:
    """Operation counts and answer mismatches across a run's windows."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int, errors: list) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)


# ----------------------------------------------------------------------
# embedded_paper
# ----------------------------------------------------------------------


def embedded_window(frames, seconds, outcome, spans=None) -> dict:
    res = embedded.run(frames, seconds, spans)
    outcome.add(res["attempted"], res["failed"], res["errors"])
    out = _seen(res["ingest_eps"], res["ack_s"], res["query_s"])
    out["cpu_us_per_event"] = res["cpu_s"] / res["events"] * 1e6
    out["setup_s"] = res["setup_s"]
    out["peak_rss_mb"] = res["peak_rss_mb"]
    return out


def embedded_layers(root, frames, seconds, outcome) -> tuple[dict, dict]:
    untraced = embedded_window(frames, seconds, outcome)
    spans: list = []
    traced = embedded_window(frames, seconds, outcome, spans)
    out = {}
    for label in ("mode", "median"):
        mine = [s for s in spans if s[0] == f"core.track_{label}"]
        busy = sum(t1 - t0 for _, t0, t1, _n in mine)
        out[f"core.track_{label}.ns_per_event"] = (
            busy / sum(n for *_, n in mine) * 1e9
        )
    # The tier layers on this workload's own events: its streams pushed
    # through the deployed tier as bulk frames for a short window.
    joined = workloads.Frames(
        "streams1-3", frames[0].universe,
        np.concatenate([f.ids for f in frames]),
        np.concatenate([f.deltas for f in frames]),
        frames[0].frame,
    )
    tier_out, _ = tier_layers(root, joined, min(seconds, 5.0),
                              traffic.Load(closed_inflight=8), outcome)
    tier_out.update(out)
    tier_out["api.evaluate.ms"] = layers.evaluate_ms(frames)
    tier_out.update(_loadgen(untraced, traced))
    return tier_out, untraced


# ----------------------------------------------------------------------
# tier_bulk / tier_live
# ----------------------------------------------------------------------


def tier_window(root, frames, seconds, load, outcome, setups) -> dict:
    """An untraced window on the first of ``setups`` tier launches."""
    setup_s = []
    cpu = {}
    for k in range(setups):
        with Tier(root, frames.universe) as tier:
            setup_s.append(tier.start())
            if k:
                continue

            def on_window(edge: str, tier=tier) -> None:
                cpu[edge] = tier.cpu()

            win = asyncio.run(traffic.drive(
                tier.port, frames, load, seconds, on_window=on_window,
            ))
            tier.check_running()
            rss = tier.peak_rss_mb()
    outcome.add(win.attempted, win.failed, win.errors)
    used = sum(
        cpu_used(cpu["start"], cpu["end"], role)
        for role in ("router", "replica", "standby")
    )
    out = _seen(win.ingest_eps, win.ack_s, win.query_s)
    out["cpu_us_per_event"] = used / win.window_events * 1e6
    out["setup_s"] = statistics.median(setup_s)
    out["peak_rss_mb"] = rss
    out["late_p99_ms"] = _pct_ms(win.late_s, 99)
    return out


def tier_layers(root, frames, seconds, load, outcome) -> tuple[dict, dict]:
    """Per-layer numbers of one traced window, and what it saw."""
    cpu = {}
    with Tier(root, frames.universe) as tier:
        tier.start()

        def on_window(edge: str) -> None:
            cpu[edge] = tier.cpu()

        win = asyncio.run(traffic.drive(
            tier.port, frames, load, seconds, on_window=on_window,
            traced=True,
        ))
        tier.check_running()
        out = asyncio.run(layers.scrape(tier, win.window_events, cpu))
        out["setup.router_ready_s"] = tier.router_ready_s
        out["setup.standby_ready_s"] = tier.standby_ready_s
    outcome.add(win.attempted, win.failed, win.errors)
    out["client.submit.us_per_frame"] = statistics.mean(win.submit_s) * 1e6
    out["loadgen.cpu_s_per_mevent"] = (
        win.loadgen_cpu_s / (win.window_events / 1e6)
    )
    out["loadgen.late_p99_ms"] = _pct_ms(win.late_s, 99)
    out.update(layers.replay(frames, win.sent[:REPLAY_FRAMES],
                             root / ".perfbench-tmp"))
    out.update(layers.track([frames]))
    return out, _seen(win.ingest_eps, win.ack_s, win.query_s)


def _loadgen(untraced: dict, traced: dict) -> dict:
    """What the load generator saw untraced, and the tracing overhead."""
    out = {f"loadgen.{k}": untraced[k] for k in SEEN_UNITS}
    out["trace.overhead.ingest_eps_pct"] = (
        100.0 * (untraced["ingest_eps"] - traced["ingest_eps"])
        / untraced["ingest_eps"]
    )
    out["trace.overhead.ack_p50_pct"] = (
        100.0 * (traced["ack_p50_ms"] - untraced["ack_p50_ms"])
        / untraced["ack_p50_ms"]
    )
    return out


# ----------------------------------------------------------------------


def measure(root: Path, workload: str, frames, seconds: float, trace: bool,
            outcome: Outcome) -> tuple[dict, dict]:
    """Return ``(metrics, untraced window numbers)``.

    A traced run splits ``seconds`` between its untraced and its traced
    window, so that both kinds of run take about as long.
    """
    if trace:
        seconds /= 2
    if workload == "embedded_paper":
        if not trace:
            e2e = embedded_window(frames, seconds, outcome)
            return e2e, e2e
        return embedded_layers(root, frames, seconds, outcome)
    load = traffic.Load(**LOADS[workload])
    if not trace:
        e2e = tier_window(root, frames[0], seconds, load, outcome, SETUPS)
        return e2e, e2e
    untraced = tier_window(root, frames[0], seconds, load, outcome, 1)
    out, traced = tier_layers(root, frames[0], seconds, load, outcome)
    out.update(_loadgen(untraced, traced))
    late = max(untraced["late_p99_ms"], out["loadgen.late_p99_ms"])
    if late > LATE_LIMIT_MS:
        raise SystemExit(
            f"perfbench: invalid run: the load generator ran {late:.1f} ms "
            f"late at p99 (limit {LATE_LIMIT_MS:g} ms); latency not scored"
        )
    return out, untraced


def run(args, root: Path) -> int:
    """Measure ``args.workload`` from checkout ``root``; print the report."""
    workloads.check_canary(args.workload)
    frames = workloads.make_frames(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} "
          f"events sha256 {workloads.digest(frames)}")
    outcome = Outcome()
    metrics, seen = measure(root, args.workload, frames, args.seconds,
                            bool(args.trace), outcome)
    units = {**SEEN_UNITS, **E2E_UNITS, "late_p99_ms": "ms"}
    for name, value in seen.items():
        print(f"  {name:36s} {value:14.4f} {units[name]}")
    if args.trace:
        for name, value in sorted(metrics.items()):
            print(f"  {name:36s} {value:14.4f} {LAYER_UNITS[name]}")
    print(f"  error_rate {outcome.failed / outcome.attempted:.6f} "
          f"({outcome.failed} of {outcome.attempted})")
    for err in outcome.errors[:20]:
        print(f"  MISMATCH {err}")
    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        "correct": not outcome.errors and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


LAYER_UNITS = {
    "loadgen.ingest_eps": "events/s",
    "loadgen.ack_p50_ms": "ms",
    "loadgen.ack_p99_ms": "ms",
    "loadgen.query_p50_ms": "ms",
    "loadgen.query_p90_ms": "ms",
    "core.track_mode.ns_per_event": "ns",
    "core.track_median.ns_per_event": "ns",
    "core.apply_arrays.us_per_call": "us",
    "api.ingest_arrays.us_per_call": "us",
    "api.evaluate.ms": "ms",
    "protocol.encode_ingest.us_per_frame": "us",
    "protocol.decode_ingest.us_per_frame": "us",
    "client.submit.us_per_frame": "us",
    "loadgen.cpu_s_per_mevent": "s",
    "loadgen.late_p99_ms": "ms",
    "router.queue_wait_ms.p50": "ms",
    "router.queue_wait_ms.p99": "ms",
    "replica.queue_wait_ms.p50": "ms",
    "router.flush_events.mean": "count",
    "router.flushes": "count",
    "replica.flush_events.mean": "count",
    "replica.flushes": "count",
    "router.fanout_rtt_ms.p50": "ms",
    "router.fanout_rtt_ms.p99": "ms",
    "router.replica_batches": "count",
    "router.partition.us_per_frame": "us",
    "router.snapshots": "count",
    "replica.checkpoint_ms": "ms",
    "router.partition_skew": "ratio",
    "router.query_tax_ms": "ms",
    "router.cpu_s_per_mevent": "s",
    "replica.cpu_s_per_mevent": "s",
    "router.wal_fsync_ms.p50": "ms",
    "router.wal_fsync_ms.p99": "ms",
    "journal.append.us_per_frame": "us",
    "journal.bytes_per_event": "bytes",
    "standby.cpu_s_per_mevent": "s",
    "standby.lag_seq": "count",
    "standby.restarts": "count",
    "setup.router_ready_s": "s",
    "setup.standby_ready_s": "s",
    "trace.overhead.ingest_eps_pct": "%",
    "trace.overhead.ack_p50_pct": "%",
}
