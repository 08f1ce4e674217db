"""The serving layer: profile ingestion and queries over TCP.

The compute stack (flat core, sharded engine, the
facade's fused plans) answers in-process; this subpackage puts it on a
wire so many concurrent writers can share one profiler:

- :mod:`repro.server.protocol` — length-prefixed JSON frames, the
  negotiated zero-copy binary frame codec, the request/response
  vocabulary, value and error codecs;
- :mod:`repro.server.service` — :class:`ProfileServer`, the asyncio
  TCP service with the **micro-batching** ingest pipeline (concurrent
  wire batches coalesce into one vectorized ``ingest`` without
  changing per-batch semantics), plus :class:`ServerThread` for
  blocking callers;
- :mod:`repro.server.client` — :class:`AsyncProfileClient`
  (pipelining), the one protocol implementation, and
  :class:`ProfileClient`, which drives it blocking on a private event
  loop;
- :mod:`repro.server.cli` — the ``python -m repro.serve`` entry point.

See ``docs/api.md`` (usage) and ``docs/perf.md`` §7 (the
latency-vs-throughput model of micro-batching).
"""

from repro.server.client import AsyncProfileClient, ProfileClient
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
)
from repro.server.service import ProfileServer, ServerStats, ServerThread

__all__ = [
    "PROTOCOL_VERSION",
    "AsyncProfileClient",
    "ProfileClient",
    "ProfileServer",
    "ProtocolError",
    "RemoteError",
    "ServerStats",
    "ServerThread",
]
