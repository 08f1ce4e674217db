"""``python -m repro.cluster`` — stand up a replicated serving tier.

One command spawns the whole tier: N replica processes running the
``python -m repro.serve`` CLI (via
:class:`~repro.cluster.supervisor.ReplicaSupervisor`) plus the
:class:`~repro.cluster.router.ClusterRouter` front end in this process.
Clients speak the ordinary server protocol to the router; replicas are
an implementation detail they never see.  Right after parsing its
arguments, before its event loop starts, the CLI forks a
:class:`~repro.cluster.zygote.Zygote` (execs one if this process
already runs a second thread); every replica is a fork of it, so none
pays an interpreter start.

Examples
--------
Three replicas over a 100k universe::

    python -m repro.cluster --capacity 100000 --replicas 3

Probe a running tier (prints the router's health block as JSON)::

    python -m repro.cluster --status --port 7421

Follow a primary's WAL as a warm standby, promoting on its death::

    python -m repro.cluster --capacity 100000 --standby \
        --journal-dir /shared/wal --port 7422

The router prints one ``cluster listening on HOST:PORT`` line once
bound (``--port 0`` picks a free port; ``--port-file`` publishes it
atomically), serves until SIGINT/SIGTERM, drains, stops the replicas,
and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import logging
import os
import signal
import sys
import tempfile

from repro.cluster.journal import RouterWal
from repro.cluster.router import ClusterRouter
from repro.cluster.standby import StandbyRouter
from repro.cluster.supervisor import ReplicaSupervisor
from repro.cluster.zygote import Zygote
from repro.obs.http import MetricsExporter
from repro.obs.registry import get_registry, json_sanitize
from repro.obs.structlog import configure_logging, log_event
from repro.server.cli import DEFAULT_PORT, _write_port_file
from repro.server.client import ProfileClient
from repro.server.protocol import DEFAULT_MAX_FRAME
from repro.testing.faults import FaultSchedule, arm

__all__ = ["build_parser", "main"]

_log = logging.getLogger("repro.cluster")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Serve a repro profiler over N replica processes "
        "behind one routing endpoint.",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="global universe size m (required unless --status)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=3,
        help="replica process count / key-space partitions (default: 3)",
    )
    parser.add_argument(
        "--replica-backend",
        default="flat",
        help="facade backend each replica opens (flat or exact keep "
        "cluster checkpoints assemblable; default: flat)",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="directory for replica port/pid/log files (default: a "
        "fresh temporary directory)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"router TCP port; 0 picks a free one (default: "
        f"{DEFAULT_PORT})",
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the router's bound port here once listening "
        "(atomic: tmp + rename)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=64,
        help="snapshot a partition (replica checkpoint + journal "
        "truncation) once its journal holds at least this many wire "
        "batches AND at least the partition's capacity in events, so "
        "an O(m_p) snapshot costs O(1) per event; crash replay stays "
        "bounded by max(this many batches, m_p events) (default: 64)",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=512,
        help="most events per router flush; the flusher takes "
        "whatever queued while it was busy, up to this many "
        "(default: 512)",
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=4096,
        help="router ingest queue bound, in wire batches",
    )
    parser.add_argument(
        "--max-frame",
        type=int,
        default=DEFAULT_MAX_FRAME,
        help="per-frame byte cap, both directions",
    )
    parser.add_argument(
        "--codec",
        choices=("binary", "json"),
        default="binary",
        help="client-facing codec offer; replicas negotiate "
        "independently (default: binary)",
    )
    parser.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="durable router WAL directory: acked batches are fsync'd "
        "here before fan-out, and a cold router on the same directory "
        "recovers every acked event after SIGKILL (default: in-memory "
        "journal only)",
    )
    parser.add_argument(
        "--no-wal-sync",
        action="store_true",
        help="keep the WAL file layout but skip the per-flush fsync "
        "(benchmarking only; forfeits crash durability)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="all-or-nothing wire batches across partitions via "
        "two-phase commit (replicas stay non-strict; atomicity is the "
        "router's)",
    )
    parser.add_argument(
        "--replica-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-replica send/ack deadline; a partition that blows it "
        "trips a circuit breaker and fails fast while the rest of the "
        "tier keeps serving (default: block and recover in place)",
    )
    parser.add_argument(
        "--degraded-reads",
        action="store_true",
        help="with a breaker open, answer aggregate queries from the "
        "live partitions only, marked partial=true",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="arm a deterministic fault schedule, e.g. "
        "'router.fanout:3:delay:0.05,supervisor.spawn:1:error' "
        "(point:occurrence:action[:arg], comma-separated; also read "
        "from $REPRO_FAULTS) — chaos testing only",
    )
    parser.add_argument(
        "--standby",
        action="store_true",
        help="follow the --journal-dir WAL as a warm standby instead "
        "of serving: tail the primary's log, and promote (fence the "
        "old primary, finish replay, bind --port) when its lease goes "
        "stale and its endpoint stops answering",
    )
    parser.add_argument(
        "--lease-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="primary WAL lease heartbeat period (default: 1.0)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=3.0,
        metavar="SECONDS",
        help="standby: seconds without a lease renewal before the "
        "primary is presumed dead (default: 3.0)",
    )
    parser.add_argument(
        "--status",
        action="store_true",
        help="instead of serving: connect to --host/--port, print the "
        "router's health block as JSON (including per-replica journal "
        "depth and lag), exit",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus text exposition of the router's "
        "metrics registry on this port (0 picks a free one)",
    )
    parser.add_argument(
        "--metrics-port-file",
        metavar="PATH",
        default=None,
        help="write the bound metrics port here (atomic tmp + rename)",
    )
    parser.add_argument(
        "--log-format",
        choices=("plain", "json"),
        default="plain",
        help="status-line format: plain (the legacy print lines) or "
        "one JSON object per line (default: plain)",
    )
    return parser


def _status(args: argparse.Namespace) -> int:
    client = ProfileClient(args.host, args.port)
    try:
        info = client.health()
    finally:
        client.close()
    # Health blocks can carry numpy scalars (engine gauges) — sanitize
    # to native ints so the JSON dump never trips, and keep key order
    # stable for scripted diffing.
    json.dump(json_sanitize(info), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _boot_replicas(args: argparse.Namespace) -> int:
    """The replica count to boot with: the WAL's committed layout wins.

    A rescale that committed before the last shutdown is durable in
    ``layout.json``; booting at the stale ``--replicas`` count and
    letting the router reconfigure would spawn the tier twice.
    """
    replicas = args.replicas
    if args.journal_dir:
        layout = RouterWal.peek_layout(args.journal_dir)
        if layout is not None and layout["n_parts"] != replicas:
            log_event(
                _log,
                f"WAL layout overrides --replicas={replicas}: "
                f"generation {layout['generation']} committed "
                f"{layout['n_parts']} partitions",
                event="layout_override",
                requested=replicas,
                committed=layout["n_parts"],
                generation=layout["generation"],
            )
            replicas = layout["n_parts"]
    return replicas


def _drain_report(router: ClusterRouter, supervisor) -> str:
    stats = router.stats
    cluster = router.cluster_stats
    line = (
        f"drained: {stats.wire_batches} wire batches "
        f"({stats.wire_events} events) in {stats.flushes} flushes, "
        f"{stats.rejected} rejected, "
        f"{cluster['replica_batches']} replica sub-batches, "
        f"{cluster['snapshots']} snapshots, "
        f"{cluster['recoveries']} recoveries "
        f"({supervisor.respawns} respawns)"
    )
    wal = router.wal_info
    if wal is not None:
        lease = (
            "lease released"
            if wal["epoch"]
            else "fencing disarmed"
        )
        line += (
            f"; wal sealed: {wal['segments']} segments, "
            f"last seq {wal['last_synced_seq']}, "
            f"epoch {wal['epoch']}, "
            f"generation {wal['generation']}, {lease}"
        )
    return line


async def _amain(
    args: argparse.Namespace, workdir: str, zygote: Zygote
) -> int:
    configure_logging(args.log_format)
    spec = args.faults or os.environ.get("REPRO_FAULTS")
    if spec:
        arm(FaultSchedule.from_spec(spec))
        log_event(
            _log, f"fault schedule armed: {spec}",
            event="faults_armed", spec=spec,
        )
    supervisor = ReplicaSupervisor(
        args.capacity,
        _boot_replicas(args),
        workdir=workdir,
        host=args.host,
        backend=args.replica_backend,
        codec=args.codec,
        zygote=zygote,
    )
    await supervisor.start()
    try:
        router = ClusterRouter(
            args.capacity,
            supervisor=supervisor,
            snapshot_every=args.snapshot_every,
            journal_dir=args.journal_dir,
            wal_sync=not args.no_wal_sync,
            lease_interval=args.lease_interval,
            strict=args.strict,
            replica_timeout=args.replica_timeout,
            degraded_reads=args.degraded_reads,
            host=args.host,
            port=args.port,
            batch_max=args.batch_max,
            queue_size=args.queue_size,
            max_frame=args.max_frame,
            binary=args.codec == "binary",
        )
        await router.start()
        log_event(
            _log,
            f"cluster listening on {router.host}:{router.port} "
            f"(capacity={args.capacity}, replicas={args.replicas}, "
            f"replica_backend={args.replica_backend}, "
            f"snapshot_every={args.snapshot_every}, "
            f"strict={args.strict}, "
            f"journal_dir={args.journal_dir or 'none'}, "
            f"workdir={workdir})",
            event="listening",
            host=router.host,
            port=router.port,
            replicas=args.replicas,
        )
        if args.port_file:
            _write_port_file(args.port_file, router.port)
        exporter = await _start_exporter(
            args, router.metrics_snapshot, role="router"
        )

        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop_requested.set)
        # A scheduled in-process crash (--faults ...:crash) or a
        # terminal cluster-unhealthy escalation also stops the router;
        # either way the process must exit, not serve a corpse.
        stop_wait = asyncio.ensure_future(stop_requested.wait())
        crash_wait = asyncio.ensure_future(router.wait_stopped())
        await asyncio.wait(
            (stop_wait, crash_wait), return_when=asyncio.FIRST_COMPLETED
        )
        for task in (stop_wait, crash_wait):
            task.cancel()
        if router.crashed:
            log_event(
                _log, "router crashed (scheduled fault)",
                event="router_crashed",
            )
            supervisor.stop()
            return 1
        log_event(_log, "draining...", event="draining")
        if exporter is not None:
            await exporter.stop()
        await router.stop()
        log_event(_log, _drain_report(router, supervisor), event="drained")
    finally:
        supervisor.stop()
    return 0


async def _start_exporter(
    args: argparse.Namespace, snapshot_fn, *, role: str
) -> MetricsExporter | None:
    """Boot the Prometheus sidecar when ``--metrics-port`` asks for it."""
    if args.metrics_port is None:
        return None
    exporter = MetricsExporter(
        snapshot_fn,
        host=args.host,
        port=args.metrics_port,
        labels={"tier": "cluster", "role": role},
    )
    await exporter.start()
    log_event(
        _log,
        f"metrics on {args.host}:{exporter.port}/metrics",
        event="metrics_listening",
        port=exporter.port,
    )
    if args.metrics_port_file:
        _write_port_file(args.metrics_port_file, exporter.port)
    return exporter


async def _amain_standby(
    args: argparse.Namespace, workdir: str, zygote: Zygote
) -> int:
    configure_logging(args.log_format)
    spec = args.faults or os.environ.get("REPRO_FAULTS")
    if spec:
        arm(FaultSchedule.from_spec(spec))
        log_event(
            _log, f"fault schedule armed: {spec}",
            event="faults_armed", spec=spec,
        )
    supervisor = ReplicaSupervisor(
        args.capacity,
        _boot_replicas(args),
        workdir=workdir,
        host=args.host,
        backend=args.replica_backend,
        codec=args.codec,
        zygote=zygote,
    )
    # NOT started: the replicas spawn at promotion.  Warm means the
    # WAL tail is caught up, not that a second tier burns CPU.
    standby = StandbyRouter(
        args.capacity,
        args.journal_dir,
        supervisor=supervisor,
        lease_timeout=args.lease_timeout,
        snapshot_every=args.snapshot_every,
        wal_sync=not args.no_wal_sync,
        lease_interval=args.lease_interval,
        strict=args.strict,
        replica_timeout=args.replica_timeout,
        degraded_reads=args.degraded_reads,
        host=args.host,
        port=args.port,
        batch_max=args.batch_max,
        queue_size=args.queue_size,
        max_frame=args.max_frame,
        binary=args.codec == "binary",
    )
    await standby.start()
    log_event(
        _log,
        f"standby following {args.journal_dir} "
        f"(capacity={args.capacity}, "
        f"lease_timeout={args.lease_timeout:g}s)",
        event="standby_following",
        journal_dir=str(args.journal_dir),
    )
    # Pre-promotion the standby has no router: scrape the process
    # registry (replay lag, promotion timings); the dispatch picks up
    # the router's merged view the moment promotion lands.
    exporter = await _start_exporter(
        args,
        lambda: (
            standby.router.metrics_snapshot()
            if standby.router is not None
            else get_registry().snapshot()
        ),
        role="standby",
    )
    try:
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop_requested.set)
        stop_wait = asyncio.ensure_future(stop_requested.wait())
        watch = standby._watch_task
        await asyncio.wait(
            (stop_wait, watch), return_when=asyncio.FIRST_COMPLETED
        )
        if not standby.promoted:
            stop_wait.cancel()
            if watch.done() and watch.exception() is not None:
                log_event(
                    _log, f"standby failed: {watch.exception()}",
                    event="standby_failed",
                )
                await standby.stop()
                return 1
            log_event(
                _log, "standby stopping (never promoted)",
                event="standby_stopping",
            )
            await standby.stop()
            return 0
        router = standby.router
        log_event(
            _log,
            f"standby promoted: serving on {router.host}:{router.port} "
            f"(epoch {router.wal_info['epoch']}; "
            f"{standby.promote_reason})",
            event="standby_promoted",
            host=router.host,
            port=router.port,
            epoch=router.wal_info["epoch"],
            reason=standby.promote_reason,
        )
        if args.port_file:
            _write_port_file(args.port_file, router.port)
        crash_wait = asyncio.ensure_future(router.wait_stopped())
        await asyncio.wait(
            (stop_wait, crash_wait), return_when=asyncio.FIRST_COMPLETED
        )
        for task in (stop_wait, crash_wait):
            task.cancel()
        if router.crashed:
            log_event(
                _log, "router crashed (scheduled fault)",
                event="router_crashed",
            )
            return 1
        log_event(_log, "draining...", event="draining")
        if exporter is not None:
            await exporter.stop()
        await standby.stop()
        log_event(_log, _drain_report(router, supervisor), event="drained")
    finally:
        supervisor.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.status:
        return _status(args)
    if args.capacity is None:
        build_parser().error("--capacity is required (unless --status)")
    if args.replicas < 1:
        build_parser().error("--replicas must be >= 1")
    if args.standby and not args.journal_dir:
        build_parser().error("--standby requires --journal-dir")
    amain = _amain_standby if args.standby else _amain
    # Before the event loop, the WAL and any socket: the fork copies
    # nothing but imported modules.
    zygote = Zygote.start()
    try:
        if args.workdir is not None:
            return asyncio.run(amain(args, args.workdir, zygote))
        with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
            return asyncio.run(amain(args, tmp, zygote))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 0
    finally:
        zygote.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
