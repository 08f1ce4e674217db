"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tier_live --seed 7 --seconds 40 \
        --trace 0

Workloads (see ``perfbench/README.md`` for why each exists, and why
``BENCHMARK.json`` leaves ``tier_bulk`` out):

- ``embedded_paper`` — streams 1-3 through ``FlatProfile.track_statistic``
  in process, at the mode and the median rank;
- ``tier_bulk`` — closed loop of 1,024-event frames, 8 in flight,
  against the deployed tier (router + 2 replicas, fsync WAL, standby);
- ``tier_live`` — open loop of 64-event frames at 50/s plus a dashboard
  at 10/s against the same deployment, with a 65,536-key state.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload once untraced and once traced, each for
half of ``--seconds``, and reports the per-layer metrics plus the
tracing overhead between the two.
Every run checks the answers against a numpy reference.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

WORKLOADS = ("embedded_paper", "tier_bulk", "tier_live")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {root / 'src'}; run from "
            f"the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # The checkout's own sources, never an installed copy.
    sys.path[:0] = [str(root / "src"), str(root)]
    # SIGTERM unwinds like Ctrl-C, so every tier is stopped on the way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from perfbench.bench import run

    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
