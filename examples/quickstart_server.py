"""Quickstart for the serving layer: profile over TCP, query, restore.

Run self-hosted (starts an in-process server on a free port)::

    python examples/quickstart_server.py

or against an already-running server (what the CI ``server-smoke`` job
does after ``python -m repro.serve --capacity 10000 --port-file ...``)::

    REPRO_SERVER_PORT=7421 python examples/quickstart_server.py

``REPRO_CODEC`` pins the wire codec (``binary``, ``json`` or the
default ``auto`` — negotiate binary when both sides can); CI runs the
smoke once per codec.

The scenario: three "edge collectors" stream page-hit batches into one
shared profiler; a dashboard reads the fused plan; operations downloads
a checkpoint and restores it locally — answers must match exactly.
"""

import os

from repro.api import Profiler, Query
from repro.errors import CapacityError
from repro.server import ProfileClient, ServerThread

CAPACITY = 10_000
PAGES = 400


def collector_batches(collector: int):
    """Deterministic synthetic page hits, skewed toward low page ids."""
    batches = []
    for wave in range(5):
        batch = []
        for i in range(200):
            page = (collector * 7 + wave * 31 + i * i) % PAGES
            batch.append((page, +1 if (i + wave) % 9 else -1))
        batches.append(batch)
    return batches


def run(host: str, port: int) -> None:
    codec = os.environ.get("REPRO_CODEC", "auto")
    collectors = [
        ProfileClient(host, port, codec=codec) for _ in range(3)
    ]
    dashboard = ProfileClient(host, port, codec=codec)

    print(f"connected to {host}:{port} "
          f"(backend={dashboard.hello['backend']}, "
          f"codec={dashboard.codec})")
    if codec != "auto" and dashboard.codec != codec:
        raise AssertionError(
            f"asked for codec {codec!r}, negotiated {dashboard.codec!r}"
        )

    total_applied = 0
    for c, client in enumerate(collectors):
        for batch in collector_batches(c):
            total_applied += client.ingest(batch)
    print(f"collectors ingested {total_applied} net unit events")
    assert total_applied > 0

    # A strict server would reject this batch whole; this one allows
    # negative frequencies (paper semantics), but bad page ids are
    # still rejected all-or-nothing — and only for the offender.
    try:
        collectors[0].ingest([(CAPACITY + 5, +1), (0, +1)])
        raise AssertionError("bad page id was accepted")
    except CapacityError:
        print("bad page id rejected (batch untouched)")

    result = dashboard.evaluate(
        Query.mode(),
        Query.top_k(5),
        Query.quantile(0.99),
        Query.histogram(),
    )
    mode = result["mode"]
    print(f"hottest page: {mode.example} at {mode.frequency} hits "
          f"({mode.count} tie)")
    print("top-5:", [(e.obj, e.frequency) for e in result["top_k"]])
    assert result["top_k"][0].frequency == mode.frequency

    info = dashboard.describe()
    server_stats = info["server"]
    print(f"server: {server_stats['wire_batches']} wire batches "
          f"coalesced into {server_stats['flushes']} flushes "
          f"(largest {server_stats['max_flush_events']} events)")

    # Checkpoint download: the wire state restores to a local facade
    # answering bit-identically.
    restored = Profiler.from_state(dashboard.checkpoint())
    assert restored.mode().frequency == mode.frequency
    assert restored.histogram() == result["histogram"]
    print("checkpoint restored locally; answers match")

    for client in collectors:
        client.close()
    dashboard.close()
    print("clients closed cleanly")


def main() -> None:
    port = os.environ.get("REPRO_SERVER_PORT")
    if port is not None:
        run(os.environ.get("REPRO_SERVER_HOST", "127.0.0.1"), int(port))
        return
    with ServerThread(Profiler.open(CAPACITY), batch_max=512) as server:
        run(server.host, server.port)
    print("self-hosted server drained and stopped")


if __name__ == "__main__":
    main()
