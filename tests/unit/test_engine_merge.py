"""Unit tests for the merge algebra, :mod:`repro.engine.merge`.

Partition ``p`` of the pinned stream is a flat facade over the ids
``x % 3 == p`` (local id ``x // 3``), exactly as a cluster replica
holds it.  Every test runs twice: over all
three partitions, and over partitions ``{0, 2}`` only — the subset a
degraded read merges.  The ground truth is one flat facade holding the
objects of the merged partitions and nothing else, so the subset must
answer exactly like that smaller profile.
"""

import pytest

from repro.api import Profiler, Query
from repro.cluster import partition_capacity
from repro.engine.merge import (
    count_above,
    count_at,
    extreme_frequency,
    heavy_cut,
    kth_holder,
    median_frequency,
    merge_extremes,
    merge_histograms,
    merge_top,
    quantile,
    rank_frequency,
    to_global,
)
from repro.errors import CapacityError, EmptyProfileError

M, N_PARTS = 10, 3
EVENTS = [(0, 3), (1, 1), (2, 4), (3, 1), (4, 1), (5, 2), (6, 4),
          (2, -2), (8, 1), (9, 1), (6, 1), (0, 1)]


@pytest.fixture(
    scope="module", params=[(0, 1, 2), (0, 2)], ids=["all", "live-0-2"]
)
def ground(request):
    """``(answers, whole, index)``: ``answers(q)`` is the merged
    partitions' ``(p, local answer)`` pairs for the facade method
    ``q``; ``whole`` is the reference facade over their objects only;
    ``index`` maps a global id to its reference id."""
    live = request.param
    locals_ = {
        p: Profiler.open(partition_capacity(M, p, N_PARTS), backend="flat")
        for p in live
    }
    objs = [x for x in range(M) if x % N_PARTS in live]
    index = {x: i for i, x in enumerate(objs)}
    whole = Profiler.open(len(objs), backend="flat")
    for x, d in EVENTS:
        if x in index:
            locals_[x % N_PARTS].ingest([(x // N_PARTS, d)])
            whole.ingest([(index[x], d)])

    def answers(query, *args):
        return [(p, getattr(prof, query)(*args)) for p, prof in
                locals_.items()]

    yield answers, whole, index
    for prof in locals_.values():
        prof.close()
    whole.close()


def test_extremes(ground):
    answers, whole, index = ground
    for kind, desc in (("mode", True), ("least", False)):
        merged = merge_extremes(
            [(p, r.values[0]) for p, r in answers("evaluate", Query(kind))],
            N_PARTS,
            desc=desc,
        )
        ref = whole.evaluate(Query(kind)).values[0]
        assert (merged.frequency, merged.count) == (
            ref.frequency, ref.count,
        )
        # The example maps back to a global id at that frequency.
        assert whole.frequency(index[merged.example]) == merged.frequency
    assert extreme_frequency(answers("max_frequency"), desc=True) == (
        whole.max_frequency()
    )
    assert extreme_frequency(answers("min_frequency"), desc=False) == (
        whole.min_frequency()
    )
    with pytest.raises(EmptyProfileError):
        merge_extremes([], N_PARTS, desc=True)


def test_histogram(ground):
    answers, whole, _index = ground
    assert merge_histograms(answers("histogram")) == whole.histogram()


def test_rank_walks_match_order_statistics(ground):
    answers, whole, _index = ground
    hist = merge_histograms(answers("histogram"))
    m = whole.capacity
    assert rank_frequency(hist, (m - 1) // 2) == whole.median_frequency()
    assert median_frequency(hist) == whole.median_frequency()
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert quantile(hist, q) == whole.quantile(q)
    for rank in range(m):
        assert rank_frequency(hist, rank) == sorted(
            whole.frequencies()
        )[rank]
    with pytest.raises(CapacityError, match=f"rank {m} out of range"):
        rank_frequency(hist, m)
    with pytest.raises(EmptyProfileError):
        median_frequency([])


def test_top_k_merge(ground):
    answers, whole, index = ground
    m = whole.capacity
    for k in (0, 1, 3, 10, 15):
        lists = merge_top(answers("top_k", min(k, m)), N_PARTS, min(k, m))
        walks = merge_top(
            [(p, iter(entries)) for p, entries in answers("top_k", m)],
            N_PARTS,
            k,
        )
        ref = whole.top_k(k)
        for merged in (lists, walks):
            assert [e.frequency for e in merged] == [
                e.frequency for e in ref
            ]
            for entry in merged:
                assert whole.frequency(index[entry.obj]) == entry.frequency
        assert lists == walks
    with pytest.raises(CapacityError):
        merge_top(answers("top_k", 1), N_PARTS, -1)


def test_count_above_and_at(ground):
    answers, whole, _index = ground
    hist = merge_histograms(answers("histogram"))
    freqs = whole.frequencies()
    for f in (-1, 0, 1, 2, 3.5, 4, 99):
        assert count_above(hist, f) == sum(1 for v in freqs if v > f)
    assert count_at(hist, 1) == freqs.count(1)


def test_kth_holder(ground):
    answers, whole, index = ground
    hists = answers("histogram")
    m = whole.capacity
    for k in range(1, m + 1):
        f, p, local_rank = kth_holder(hists, k)
        assert f == whole.kth_most_frequent(k).frequency
        # The lowest partition holding f, at its first object there.
        holders = [q for q, hist in hists if count_at(hist, f)]
        assert p == holders[0]
        local = dict(answers("kth_most_frequent", local_rank))[p]
        assert local.frequency == f
        entry = to_global(local, p, N_PARTS)
        assert whole.frequency(index[entry.obj]) == f
    with pytest.raises(CapacityError, match=rf"k must be in \[1, {m}\]"):
        kth_holder(hists, m + 1)


def test_heavy_cut(ground):
    answers, whole, index = ground
    hists = answers("histogram")
    total = sum(r.values[0] for _p, r in answers("evaluate", Query.total()))
    assert total == whole.total
    for phi in (0.05, 0.1, 0.2, 0.5, 1.0):
        cut = heavy_cut(hists, total, phi)
        assert all(count > 0 for _p, count in cut)
        tops = dict(answers("top_k", M))
        merged = merge_top(
            [(p, tops[p][:count]) for p, count in cut],
            N_PARTS,
            sum(count for _p, count in cut),
        )
        ref = whole.heavy_hitters(phi)
        assert [e.frequency for e in merged] == [e.frequency for e in ref]
        assert sorted(index[e.obj] for e in merged) == sorted(
            e.obj for e in ref
        )
    assert heavy_cut(hists, 0, 0.5) == []
    with pytest.raises(CapacityError):
        heavy_cut(hists, total, 0.0)
