"""``python -m repro.serve`` — stand up a profiling service.

Examples
--------
Serve a 100k-key dense universe on the flat engine::

    python -m repro.serve --capacity 100000

Array engine, fixed port, aggressive micro-batching::

    python -m repro.serve --capacity 1000000 --array-engine --port 7421 \\
        --batch-max 2048

One server hosts one core; to partition a universe over N processes,
run ``python -m repro.cluster --replicas N`` instead.

The server prints one ``listening on HOST:PORT`` line once bound
(``--port 0`` picks a free port; ``--port-file`` additionally writes
the bound port to a file so scripts can wait for it), then serves
until SIGINT/SIGTERM, drains the ingest queue, acks everything
accepted, and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import logging
import os
import signal
import sys
from pathlib import Path

from repro.api import Profiler, available_backends
from repro.api.backends import SHARDS_RETIRED
from repro.obs.http import MetricsExporter
from repro.obs.structlog import configure_logging, log_event
from repro.server.protocol import DEFAULT_MAX_FRAME
from repro.server.service import ProfileServer

__all__ = ["build_parser", "main"]

_log = logging.getLogger("repro.server")

#: Default TCP port (unregistered; chosen once, spelled everywhere).
DEFAULT_PORT = 7421


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a repro profiler over TCP with "
        "micro-batching ingestion.",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="universe size m (required for dense keys)",
    )
    parser.add_argument(
        "--backend",
        default="auto",
        choices=available_backends(),
        help="profiling backend behind the facade (default: auto)",
    )
    # Retired: refused with a pointer to the cluster tier.
    parser.add_argument("--shards", help=argparse.SUPPRESS)
    parser.add_argument(
        "--keys",
        choices=("dense", "hashable"),
        default="dense",
        help="object id mode (default: dense integers)",
    )
    parser.add_argument(
        "--array-engine",
        action="store_true",
        help="host the flat backend on its NumPy array engine "
        "(flat backend only)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="forbid negative frequencies (underflowing wire batches "
        "are rejected whole)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port; 0 picks a free one (default: {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound port here once listening (for scripts; "
        "written atomically via tmp + rename)",
    )
    parser.add_argument(
        "--role",
        default="standalone",
        choices=("standalone", "replica"),
        help="how this process is deployed (replica: fronted by a "
        "repro.cluster router; purely introspective)",
    )
    parser.add_argument(
        "--partition",
        metavar="P/N",
        default=None,
        help="key-space partition this replica owns, as 'index/count' "
        "(e.g. 1/3); introspective, surfaced by health/describe",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=512,
        help="most coalesced events per flush; the flusher takes "
        "whatever queued while it was busy, up to this many "
        "(1 disables micro-batching; default: 512)",
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=4096,
        help="ingest queue bound, in wire batches (backpressure)",
    )
    parser.add_argument(
        "--write-timeout",
        type=float,
        default=30.0,
        help="seconds before a stalled client is dropped",
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
        help="binary: clients may negotiate the binary frame codec "
        "(JSON stays the default and fallback); json: JSON only "
        "(default: binary)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus text exposition of the metrics "
        "registry on this port (0 picks a free one; off by default)",
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


def _parse_partition(text: str | None) -> tuple[int, int] | None:
    """Parse ``--partition P/N`` into ``(index, count)``."""
    if text is None:
        return None
    try:
        index_s, count_s = text.split("/", 1)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise SystemExit(
            f"--partition must look like INDEX/COUNT, got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise SystemExit(
            f"--partition index must be in [0, count), got {text!r}"
        )
    return index, count


def _write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically (tmp + rename).

    Watchers (e.g. the cluster supervisor) poll for this file; the
    rename guarantees they never observe a half-written number.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(f"{port}\n")
    os.replace(tmp, target)


async def _amain(args: argparse.Namespace) -> int:
    configure_logging(args.log_format)
    open_options = {}
    if args.array_engine:
        # Only forwarded when requested: array_engine= is a
        # flat-backend-only option and errors elsewhere.
        open_options["array_engine"] = True
    profiler = Profiler.open(
        args.capacity,
        backend=args.backend,
        keys=args.keys,
        strict=args.strict,
        **open_options,
    )
    with profiler:
        server = ProfileServer(
            profiler,
            host=args.host,
            port=args.port,
            batch_max=args.batch_max,
            queue_size=args.queue_size,
            write_timeout=args.write_timeout,
            max_frame=args.max_frame,
            binary=args.codec == "binary",
            role=args.role,
            partition=_parse_partition(args.partition),
        )
        await server.start()
        codecs = server.describe_server()["codecs"]
        log_event(
            _log,
            f"listening on {server.host}:{server.port} "
            f"(backend={profiler.backend_name}, "
            f"codecs={','.join(codecs)}, "
            f"batch_max={args.batch_max})",
            event="listening",
            host=server.host,
            port=server.port,
            backend=profiler.backend_name,
        )
        if args.port_file:
            _write_port_file(args.port_file, server.port)
        exporter = None
        if args.metrics_port is not None:
            exporter = MetricsExporter(
                server.metrics_snapshot,
                host=args.host,
                port=args.metrics_port,
                labels={"tier": "server", "role": args.role},
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

        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop_requested.set)
        await stop_requested.wait()
        log_event(_log, "draining...", event="draining")
        if exporter is not None:
            await exporter.stop()
        await server.stop()
        stats = server.stats
        log_event(
            _log,
            f"drained: {stats.wire_batches} wire batches "
            f"({stats.wire_events} events) in {stats.flushes} flushes, "
            f"{stats.rejected} rejected, "
            f"{stats.connections_total} connections",
            event="drained",
            wire_batches=stats.wire_batches,
            wire_events=stats.wire_events,
            flushes=stats.flushes,
            rejected=stats.rejected,
            connections=stats.connections_total,
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shards is not None:
        parser.error(SHARDS_RETIRED)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
