"""The merge algebra: one profile's answers from its partitions' answers.

A partitioned profile owns object ``x`` in partition ``p = x % P``
under the local dense id ``x // P``
(:func:`~repro.engine.sharding.partition_ids`).  The shards of a
:class:`~repro.engine.sharding.ShardedProfiler` and the replicas
behind a :class:`~repro.cluster.router.ClusterRouter` are both such
partitions, and both answer every query through the pure functions
here:

- extremes (:func:`merge_extremes`, :func:`extreme_frequency`) compare
  the partitions' extremes, O(P);
- :func:`merge_histograms` k-way merges the ascending histograms,
  summing equal frequencies — the histogram fixes every order
  statistic, so :func:`rank_frequency`, :func:`median_frequency` and
  :func:`quantile` walk it;
- :func:`merge_top` heap-merges descending entry lists or lazy walks;
- :func:`kth_holder` and :func:`heavy_cut` read the histograms to say
  which partition to ask for ``kth_most_frequent`` and how many
  ``top_k`` entries each holds above the heavy-hitter cut.

Every function takes ``(p, local answer)`` pairs, in ascending ``p``,
for **any subset** of the partitions.  Ties go to the lowest ``p``,
then to the partition's own tie order — the order of the fused
plan's merged run walk, so every consumer names the same objects.  A
subset merges into exactly the answer of a profile holding only those
partitions: rank answers take the merged histogram's own count as the
universe size, which is ``m`` when every partition is present.  That
is the whole degraded-read contract of the cluster router.

>>> hists = [(0, [(0, 2), (3, 1)]), (2, [(0, 1), (1, 1)])]
>>> merge_histograms(hists)
[(0, 3), (1, 1), (3, 1)]
>>> median_frequency(merge_histograms(hists))
0
>>> kth_holder(hists, 2)
(1, 2, 1)
"""

from __future__ import annotations

from heapq import merge as _heap_merge
from itertools import islice
from typing import Iterable, Iterator

from repro.core.queries import ModeResult, TopEntry, quantile_rank
from repro.errors import CapacityError, EmptyProfileError

__all__ = [
    "count_above",
    "count_at",
    "extreme_frequency",
    "heavy_cut",
    "kth_holder",
    "median_frequency",
    "merge_extremes",
    "merge_histograms",
    "merge_top",
    "quantile",
    "rank_frequency",
    "to_global",
]

Histogram = list[tuple[int, int]]


def _empty() -> EmptyProfileError:
    return EmptyProfileError("profile tracks zero objects")


def to_global(entry: TopEntry, p: int, n_parts: int) -> TopEntry:
    """Map partition ``p``'s local ``(object, frequency)`` entry to its
    global id."""
    return TopEntry(int(entry[0]) * n_parts + p, entry[1])


def merge_extremes(answers, n_parts: int, *, desc: bool) -> ModeResult:
    """Merge ``(p, mode())`` (``desc``) or ``(p, least())`` answers.

    The winning frequency is the max (min); counts sum over every
    partition attaining it; the example is the lowest such
    partition's, mapped to its global id.
    """
    best_f: int | None = None
    count = 0
    example = -1
    for p, result in answers:
        f = result.frequency
        if best_f is None or (f > best_f if desc else f < best_f):
            best_f = f
            count = result.count
            example = int(result.example) * n_parts + p
        elif f == best_f:
            count += result.count
    if best_f is None:
        raise _empty()
    return ModeResult(frequency=best_f, count=count, example=example)


def extreme_frequency(answers, *, desc: bool) -> int:
    """Merge ``(p, max_frequency())`` (``desc``) or ``min_frequency``."""
    values = [f for _, f in answers]
    if not values:
        raise _empty()
    return max(values) if desc else min(values)


def merge_histograms(answers) -> Histogram:
    """K-way merge of ``(p, ascending (frequency, count) histogram)``."""
    out: Histogram = []
    for f, count in _heap_merge(*(hist for _, hist in answers)):
        if out and out[-1][0] == f:
            out[-1] = (f, out[-1][1] + count)
        else:
            out.append((f, count))
    return out


def _universe(hist: Histogram) -> int:
    """Objects a merged histogram covers; raises on an empty profile."""
    n = sum(count for _, count in hist)
    if n == 0:
        raise _empty()
    return n


def rank_frequency(hist: Histogram, rank: int) -> int:
    """``T[rank]`` of the ascending frequency array ``hist`` spans."""
    n = _universe(hist)
    if not 0 <= rank < n:
        raise CapacityError(f"rank {rank} out of range [0, {n})")
    for f, count in hist:
        if rank < count:
            return f
        rank -= count
    raise AssertionError("unreachable")  # pragma: no cover


def median_frequency(hist: Histogram) -> int:
    """Lower median of the frequency array ``hist`` spans."""
    return rank_frequency(hist, (_universe(hist) - 1) // 2)


def quantile(hist: Histogram, q: float) -> int:
    """Frequency at quantile ``q`` (see
    :func:`~repro.core.queries.quantile_rank`)."""
    return rank_frequency(hist, quantile_rank(q, _universe(hist)))


def count_above(hist: Histogram, f) -> int:
    """Objects with frequency strictly greater than ``f``."""
    return sum(c for ff, c in hist if ff > f)


def count_at(hist: Histogram, f) -> int:
    """Objects with frequency exactly ``f``."""
    return sum(c for ff, c in hist if ff == f)


def _globalize(
    entries: Iterable, p: int, n_parts: int
) -> Iterator[TopEntry]:
    for entry in entries:
        yield to_global(entry, p, n_parts)


def merge_top(answers, n_parts: int, k: int) -> list[TopEntry]:
    """The global top ``k`` from ``(p, descending local entries)``.

    Entries may be lists (each partition's ``top_k(k)``: every global
    top-k entry is in its partition's local top-k) or lazy descending
    walks; at most ``k`` entries are drawn from the merge.
    """
    if k < 0:
        raise CapacityError(f"k must be >= 0, got {k}")
    walks = [_globalize(entries, p, n_parts) for p, entries in answers]
    merged = _heap_merge(*walks, key=lambda e: -e.frequency)
    return list(islice(merged, k))


def kth_holder(answers, k: int) -> tuple[int, int, int]:
    """Who holds the k-th largest frequency, from ``(p, histogram)``.

    Returns ``(f, p, local_rank)``: the frequency ``f`` at descending
    rank ``k``, the lowest partition ``p`` holding an object at ``f``,
    and the local rank whose ``kth_most_frequent`` names that
    partition's first object at ``f``.
    """
    answers = list(answers)
    hist = merge_histograms(answers)
    n = _universe(hist)
    if not 1 <= k <= n:
        raise CapacityError(f"k must be in [1, {n}], got {k}")
    f = rank_frequency(hist, n - k)
    for p, local in answers:
        if count_at(local, f):
            return f, p, count_above(local, f) + 1
    raise AssertionError("unreachable")  # pragma: no cover


def heavy_cut(answers, total: int, phi: float) -> list[tuple[int, int]]:
    """``(p, count)`` of the partitions holding objects above
    ``phi * total``, from ``(p, histogram)`` answers.

    Each partition's qualifiers are its local ``top_k(count)``; merged
    with :func:`merge_top` at the summed count, they are the global
    heavy hitters.  ``total`` is the summed mass of the same
    partitions.
    """
    if not 0.0 < phi <= 1.0:
        raise CapacityError(f"phi must be in (0, 1], got {phi}")
    if total <= 0:
        return []
    threshold = phi * total
    cut = [(p, count_above(hist, threshold)) for p, hist in answers]
    return [(p, count) for p, count in cut if count]
