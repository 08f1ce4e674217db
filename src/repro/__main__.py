"""``python -m repro`` — command-line front door.

Subcommands
-----------
``bench``
    Regenerate the paper's figures (see ``repro.bench.cli``).
``profile``
    Run a named workload through the unified facade
    (:class:`repro.api.Profiler`) and print a statistics summary — a
    quick way to see the library work end to end on any backend.
``serve``
    Host a profiler over TCP with micro-batching ingestion (alias of
    ``python -m repro.serve``; see :mod:`repro.server.cli`).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import Profiler, Query, available_backends
from repro.api.backends import SHARDS_RETIRED
from repro.bench.cli import main as bench_main
from repro.bench.workloads import WORKLOAD_NAMES, build_stream
from repro.core.stats import summarize
from repro.errors import CapacityError, UnsupportedQueryError


def _profile_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Profile a synthetic log stream through repro.api.",
    )
    parser.add_argument(
        "--stream", default="stream1", choices=WORKLOAD_NAMES
    )
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--universe", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument(
        "--backend",
        default="auto",
        choices=available_backends(),
        help="profiling backend behind the facade (default: auto)",
    )
    # Retired: refused with a pointer to the cluster tier.
    parser.add_argument("--shards", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.shards is not None:
        parser.error(SHARDS_RETIRED)

    stream = build_stream(
        args.stream, args.events, args.universe, seed=args.seed
    )
    profiler = Profiler.open(args.universe, backend=args.backend)
    return _profile_report(profiler, stream, args)


def _profile_report(profiler, stream, args) -> int:
    ids, adds = stream.arrays()
    try:
        profiler.ingest(zip(ids.tolist(), adds.tolist()))
    except CapacityError as exc:
        # E.g. the add-only approx backend fed a stream with removes.
        print(
            f"backend {profiler.backend_name!r} rejected the "
            f"{args.stream!r} stream: {exc}",
            file=sys.stderr,
        )
        return 2

    print(f"stream={args.stream} events={len(stream):,} "
          f"universe={args.universe:,} backend={profiler.backend_name}")
    try:
        print(summarize(profiler))
    except UnsupportedQueryError:
        print("(distribution summary unsupported on this backend)")

    # One fused plan for everything this backend answers: partially
    # capable backends still print their share of the dashboard.
    plan = [
        query
        for query in (Query.mode(), Query.least(), Query.top_k(args.top))
        if profiler.supports(query.kind)
    ]
    result = profiler.evaluate(*plan)
    for query, value in result:
        if query.kind == "mode":
            ties = value.count if value.count is not None else "?"
            print(f"mode: object {value.example} at frequency "
                  f"{value.frequency} ({ties} object(s) tie)")
        elif query.kind == "least":
            print(f"least: object {value.example} at frequency "
                  f"{value.frequency} ({value.count} object(s) tie)")
        else:
            print(f"top-{args.top}:")
            for rank, entry in enumerate(value, start=1):
                print(f"  {rank:>3}. object {entry.obj:>8}  "
                      f"freq {entry.frequency}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("usage: python -m repro {bench,profile,serve} ...")
        return 0
    command, rest = argv[0], argv[1:]
    if command == "bench":
        return bench_main(rest)
    if command == "profile":
        return _profile_main(rest)
    if command == "serve":
        from repro.server.cli import main as serve_main

        return serve_main(rest)
    print(f"unknown command {command!r}; use 'bench', 'profile' or "
          f"'serve'", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
