"""``embedded_paper``: the paper's own claim, in process, no sockets.

Streams 1-3 at m = 10,000 are applied event by event through
``FlatProfile.track_statistic``, once at the mode rank (the paper's
Fig. 3) and once at the median rank (Fig. 6).  Each pass builds a
fresh engine, feeds the stream in 1,024-event calls (each call returns
the statistic as of its last event: that is the "ack"), checks the
returned statistic and then the dashboard against a numpy reference.
Passes repeat until the window ends.
"""

from __future__ import annotations

import resource
from time import perf_counter, process_time

import numpy as np

from repro.core.flat import FlatProfile

from perfbench.workloads import Frames, check_dashboard


def _dashboard(p: FlatProfile):
    return (
        p.mode(), p.top_k(10), p.histogram(),
        p.quantile(0.5), p.quantile(0.99), p.support(0),
    )


def run(frames: list[Frames], seconds: float, spans=None) -> dict:
    """Run passes for ``seconds``; return raw samples and counts."""
    m = frames[0].universe
    passes = []
    for f in frames:
        counts = f.reference(np.ones(len(f), dtype=np.int64))
        chunks = [
            (ids.tolist(), (deltas > 0).tolist())
            for ids, deltas in (f[i] for i in range(len(f)))
        ]
        for label, rank in (("mode", m - 1), ("median", (m - 1) // 2)):
            passes.append((label, rank, chunks, counts,
                           int(np.sort(counts)[rank])))
    build_s, ack_s, query_s = [], [], []
    events = 0
    cpu_s = 0.0
    attempted = failed = 0
    errors: list[str] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for label, rank, chunks, counts, want in passes:
            t0 = perf_counter()
            p = FlatProfile(m)
            build_s.append(perf_counter() - t0)
            track = p.track_statistic
            got = None
            for ids, adds in chunks:
                c0 = process_time()
                t0 = perf_counter()
                got = track(ids, adds, rank)
                dt = perf_counter() - t0
                cpu_s += process_time() - c0
                ack_s.append(dt)
                events += len(ids)
                if spans is not None:
                    spans.append(
                        (f"core.track_{label}", t0, t0 + dt, len(ids))
                    )
            attempted += len(chunks) + 1
            if got != want:
                failed += 1
                errors.append(f"{label} pass returned {got}, reference {want}")
            t0 = perf_counter()
            values = _dashboard(p)
            query_s.append(perf_counter() - t0)
            bad = check_dashboard(values, counts)
            if bad:
                failed += 1
                errors.extend(bad)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "events": events,
        "ingest_eps": events / sum(ack_s),
        "cpu_s": cpu_s,
        "ack_s": ack_s,
        "query_s": query_s,
        "setup_s": float(np.median(build_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
