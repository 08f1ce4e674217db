"""Workload inputs, their digests, and the reference answers.

Every input is made from the run's ``--seed`` by the repository's own
paper-stream generator, so one seed always gives the same events.  A
digest of the generated events is pinned in ``digests.json`` for a
canary seed: a run refuses to start when the generator's output for
that seed has changed, because the workload would then no longer be the
one earlier runs measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api.plan import Query
from repro.streams.generators import generate_stream, paper_stream

CANARY_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")

#: The dashboard a user of the tier refreshes; the final check adds
#: ``Query.total()``.
DASHBOARD = (
    Query.mode(),
    Query.top_k(10),
    Query.histogram(),
    Query.quantile(0.5),
    Query.quantile(0.99),
    Query.support(0),
)


@dataclass(frozen=True)
class Spec:
    """What one workload feeds the system."""

    streams: tuple[str, ...]
    universe: int
    events: int  # per stream
    frame: int  # events per frame (per track_statistic call, embedded)


SPECS = {
    "embedded_paper": Spec(
        ("stream1", "stream2", "stream3"), 10_000, 100_000, 1024
    ),
    "tier_bulk": Spec(("stream1",), 4_096, 1 << 20, 1024),
    "tier_live": Spec(("stream3",), 65_536, 1 << 18, 64),
}


@dataclass
class Frames:
    """One stream cut into frames of ``(ids, deltas)`` int64 arrays."""

    name: str
    universe: int
    ids: np.ndarray
    deltas: np.ndarray
    frame: int

    def __len__(self) -> int:
        return len(self.ids) // self.frame

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo = i * self.frame
        hi = lo + self.frame
        return self.ids[lo:hi], self.deltas[lo:hi]

    def reference(self, times: np.ndarray) -> np.ndarray:
        """Final frequencies after frame ``i`` was applied ``times[i]``
        times (cyclic replay)."""
        n = len(self) * self.frame
        weights = np.repeat(times, self.frame) * self.deltas[:n]
        counts = np.bincount(
            self.ids[:n], weights=weights, minlength=self.universe
        )
        return np.rint(counts).astype(np.int64)


def make_frames(workload: str, seed: int) -> list[Frames]:
    spec = SPECS[workload]
    out = []
    for name in spec.streams:
        stream = generate_stream(
            paper_stream(name, spec.events, spec.universe, seed=seed)
        )
        deltas = np.where(stream.adds, 1, -1).astype(np.int64)
        out.append(
            Frames(name, spec.universe, stream.ids.astype(np.int64),
                   deltas, spec.frame)
        )
    return out


def digest(frames: list[Frames]) -> str:
    h = hashlib.sha256()
    for f in frames:
        h.update(f"{f.name}:{f.universe}:{f.frame}:".encode())
        h.update(np.ascontiguousarray(f.ids, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(f.deltas, dtype="<i8").tobytes())
    return h.hexdigest()


def check_canary(workload: str) -> None:
    """Refuse to run when the generator no longer yields the pinned
    events for :data:`CANARY_SEED`."""
    pinned = json.loads(DIGESTS.read_text())[workload]
    got = digest(make_frames(workload, CANARY_SEED))
    if got != pinned:
        raise SystemExit(
            f"perfbench: {workload} events for seed {CANARY_SEED} have "
            f"digest {got}, pinned {pinned}: the stream generator changed, "
            f"so runs would not compare; refusing to run"
        )


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------


def quantile_rank(q: float, size: int) -> int:
    """Lower nearest rank; ``q == 1`` is the maximum."""
    return size - 1 if q == 1.0 else int(q * (size - 1))


def check_dashboard(values, counts: np.ndarray, total=None) -> list[str]:
    """Compare one answered :data:`DASHBOARD` (plus ``total`` when given)
    with frequencies ``counts``; return the mismatches."""
    errors = []
    ordered = np.sort(counts)
    m = len(counts)
    mode, top, hist, q50, q99, zeros = values[:6]
    top_f = int(ordered[-1])
    if (
        mode.frequency != top_f
        or mode.count != int((counts == top_f).sum())
        or counts[mode.example] != top_f
    ):
        errors.append(f"mode {mode} != frequency {top_f}")
    want = ordered[::-1][:10].tolist()
    if [e.frequency for e in top] != want or any(
        counts[e.obj] != e.frequency for e in top
    ) or len({e.obj for e in top}) != len(top):
        errors.append(f"top_k {top} != frequencies {want}")
    freqs, sizes = np.unique(counts, return_counts=True)
    if [tuple(map(int, x)) for x in hist] != list(
        zip(freqs.tolist(), sizes.tolist())
    ):
        errors.append("histogram differs")
    for q, got in ((0.5, q50), (0.99, q99)):
        want_q = int(ordered[quantile_rank(q, m)])
        if got != want_q:
            errors.append(f"quantile({q}) {got} != {want_q}")
    if zeros != int((counts == 0).sum()):
        errors.append(f"support(0) {zeros} != {(counts == 0).sum()}")
    if total is not None and total != int(counts.sum()):
        errors.append(f"total {total} != {counts.sum()}")
    return errors
