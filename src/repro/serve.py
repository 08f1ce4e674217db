"""``python -m repro.serve`` — the profiling service entry point.

A thin alias for :mod:`repro.server.cli` so the server starts with the
same spelling the docs use everywhere::

    python -m repro.serve --capacity 100000 --port 7421

See ``python -m repro.serve --help`` for the full flag set
(``--backend/--keys/--batch-max/--queue-size/...``).  One server
hosts one core; ``python -m repro.cluster --replicas N`` partitions a
universe over N of them.
"""

from repro.server.cli import build_parser, main

__all__ = ["build_parser", "main"]

if __name__ == "__main__":
    raise SystemExit(main())
