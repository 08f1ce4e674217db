"""Unit tests for the query-plan layer: Query, EvalResult, fusion.

The acceptance property of the plan layer is structural: a fused
``evaluate`` answers mode + top-k + histogram + quantile (and friends)
with **one** descending walk per underlying BlockSet — asserted here by
instrumenting the walk entry points.
"""

import contextlib
import random
from unittest import mock

import pytest

from repro.api import EvalResult, Profiler, Query, RESULT_VERSION
from repro.core.blockset import BlockSet
from repro.core.flat import _FlatBlockReader
from repro.errors import CapacityError, EmptyProfileError


def _walk_counter():
    """Patch the walk entry points of both block structures (the
    block-object BlockSet and the flat engine's reader), returning
    shared call counters."""
    counts = {"desc": 0, "asc": 0}
    stack = contextlib.ExitStack()
    for holder in (BlockSet, _FlatBlockReader):
        real_desc = holder.iter_blocks_desc
        real_asc = holder.iter_blocks

        def counting_desc(self, _real=real_desc):
            counts["desc"] += 1
            return _real(self)

        def counting_asc(self, _real=real_asc):
            counts["asc"] += 1
            return _real(self)

        stack.enter_context(
            mock.patch.object(holder, "iter_blocks_desc", counting_desc)
        )
        stack.enter_context(
            mock.patch.object(holder, "iter_blocks", counting_asc)
        )
    # Returned as a two-element tuple so existing call sites
    # (``with patches[0], patches[1]:``) keep working unchanged.
    return counts, (stack, contextlib.nullcontext())


DASHBOARD = (
    Query.mode(),
    Query.top_k(5),
    Query.histogram(),
    Query.quantile(0.5),
)


class TestQueryModel:
    def test_constructors_validate(self):
        with pytest.raises(CapacityError):
            Query.top_k(-1)
        with pytest.raises(CapacityError):
            Query.kth_most_frequent(0)
        with pytest.raises(CapacityError):
            Query.quantile(1.5)
        with pytest.raises(CapacityError):
            Query.heavy_hitters(0.0)
        with pytest.raises(CapacityError):
            Query("made-up-kind")

    def test_queries_are_frozen_and_hashable(self):
        assert Query.mode() == Query.mode()
        assert len({Query.quantile(0.5), Query.quantile(0.5)}) == 1
        with pytest.raises(AttributeError):
            Query.mode().kind = "least"

    def test_key_spelling(self):
        assert Query.quantile(0.25).key == "quantile(0.25)"
        assert Query.mode().key == "mode()"

    def test_evaluate_rejects_non_queries(self):
        with pytest.raises(CapacityError):
            Profiler.open(4).evaluate("mode")


class TestEvalResult:
    def _result(self):
        profiler = Profiler.open(8)
        profiler.ingest({1: 3, 2: 1})
        return profiler.evaluate(
            Query.mode(), Query.quantile(0.5), Query.quantile(1.0)
        )

    def test_versioned(self):
        result = self._result()
        assert result.version == RESULT_VERSION

    def test_indexing(self):
        result = self._result()
        assert result[0] == result[Query.mode()] == result["mode"]
        assert result[Query.quantile(1.0)] == 3
        with pytest.raises(KeyError):
            result["quantile"]  # two quantiles: ambiguous by kind
        with pytest.raises(KeyError):
            result["histogram"]
        with pytest.raises(KeyError):
            result[Query.least()]

    def test_iteration_and_dict(self):
        result = self._result()
        assert len(result) == 3
        assert dict(result)[Query.quantile(0.5)] == 0
        assert result.as_dict()["quantile(1.0)"] == 3

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CapacityError):
            EvalResult(queries=(Query.mode(),), values=())

    def test_empty_evaluate(self):
        result = Profiler.open(4).evaluate()
        assert len(result) == 0


class TestFusionCorrectness:
    """Fused answers equal standalone answers on every walk backend."""

    PLAN = DASHBOARD + (
        Query.least(),
        Query.max_frequency(),
        Query.min_frequency(),
        Query.median(),
        Query.support(0),
        Query.support(2),
        Query.active_count(),
        Query.total(),
        Query.heavy_hitters(0.2),
        Query.kth_most_frequent(3),
        Query.frequency(7),
    )

    def _drive(self, profiler, seed):
        rng = random.Random(seed)
        batch = [
            (rng.randrange(30), rng.random() < 0.7) for _ in range(800)
        ]
        profiler.ingest(batch)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "exact"},
            {"backend": "flat"},
            {"backend": "flat", "array_engine": True},
        ],
        ids=["exact", "flat", "flat-array"],
    )
    def test_fused_matches_standalone(self, kwargs):
        profiler = Profiler.open(30, **kwargs)
        self._drive(profiler, seed=hash(str(kwargs)) % 1000)
        result = profiler.evaluate(*self.PLAN)
        assert result[Query.mode()] == profiler.mode()
        assert result[Query.top_k(5)] == profiler.top_k(5)
        assert result[Query.histogram()] == profiler.histogram()
        assert result[Query.quantile(0.5)] == profiler.quantile(0.5)
        assert result[Query.least()] == profiler.least()
        assert result[Query.max_frequency()] == profiler.max_frequency()
        assert result[Query.min_frequency()] == profiler.min_frequency()
        assert result[Query.median()] == profiler.median_frequency()
        assert result[Query.support(0)] == profiler.support(0)
        assert result[Query.support(2)] == profiler.support(2)
        assert result[Query.active_count()] == profiler.active_count
        assert result[Query.total()] == profiler.total
        assert result[Query.heavy_hitters(0.2)] == profiler.heavy_hitters(0.2)
        kth = result[Query.kth_most_frequent(3)]
        assert kth.frequency == profiler.kth_most_frequent(3).frequency
        assert profiler.frequency(kth.obj) == kth.frequency
        assert result[Query.frequency(7)] == profiler.frequency(7)

    def test_fused_on_hashable_exact(self):
        profiler = Profiler.open(keys="hashable")
        profiler.ingest([("a", +3), ("b", +1), ("c", +2), ("d", +1)])
        result = profiler.evaluate(*DASHBOARD, Query.frequency("b"))
        assert result[Query.mode()].example == "a"
        assert result[Query.top_k(5)] == profiler.top_k(5)
        assert result[Query.histogram()] == profiler.histogram()
        assert result[Query.quantile(0.5)] == profiler.quantile(0.5)
        assert result[Query.frequency("b")] == 1

    def test_fused_on_bounded_hashable_flat(self):
        profiler = Profiler.open(4, backend="flat", keys="hashable")
        profiler.ingest([("x", +4), ("y", +2), ("z", +1)])
        result = profiler.evaluate(*DASHBOARD, Query.frequency("y"))
        assert result[Query.mode()].example == "x"
        assert result[Query.top_k(5)] == profiler.top_k(5)
        assert result[Query.frequency("y")] == 2

    def test_dispatch_on_structureless_backend(self):
        profiler = Profiler.open(8, backend="bucket")
        profiler.ingest({1: 4, 2: 1})
        result = profiler.evaluate(*DASHBOARD)
        assert result[Query.mode()] == profiler.mode()
        assert result[Query.histogram()] == profiler.histogram()

    def test_phantoms_excluded_from_fused_answers(self):
        profiler = Profiler.open(keys="hashable")
        profiler.ingest([("only", +1)])
        # The backing SProfile carries phantom slots at frequency 0;
        # none of them may leak into logical answers.
        result = profiler.evaluate(
            Query.histogram(), Query.least(), Query.support(0),
            Query.active_count(), Query.top_k(10),
        )
        assert result[Query.histogram()] == [(1, 1)]
        assert result[Query.least()].frequency == 1
        assert result[Query.support(0)] == 0
        assert result[Query.active_count()] == 1
        assert result[Query.top_k(10)] == [("only", 1)]


class TestEmptyProfiles:
    def test_defined_kinds_answer_without_walking(self):
        profiler = Profiler.open(0)
        result = profiler.evaluate(
            Query.histogram(), Query.top_k(3), Query.heavy_hitters(0.5),
            Query.support(0), Query.active_count(), Query.total(),
        )
        assert tuple(result.values) == ([], [], [], 0, 0, 0)

    @pytest.mark.parametrize(
        "query",
        [Query.mode(), Query.least(), Query.median(), Query.quantile(0.5),
         Query.max_frequency(), Query.kth_most_frequent(1)],
        ids=lambda q: q.kind,
    )
    def test_undefined_kinds_raise(self, query):
        with pytest.raises(EmptyProfileError):
            Profiler.open(0).evaluate(query)

    def test_kth_beyond_universe(self):
        profiler = Profiler.open(3)
        with pytest.raises(CapacityError):
            profiler.evaluate(Query.kth_most_frequent(4))


class TestWalkCount:
    """The acceptance criterion: one walk answers the whole dashboard."""

    def test_exact_dashboard_is_one_walk(self):
        profiler = Profiler.open(50)
        profiler.ingest({i: i % 7 for i in range(50)})
        counts, patches = _walk_counter()
        with patches[0], patches[1]:
            result = profiler.evaluate(*DASHBOARD)
        assert counts["desc"] == 1
        assert counts["asc"] == 0
        assert result[Query.mode()].frequency == 6

    def test_separate_calls_walk_more(self):
        profiler = Profiler.open(50)
        profiler.ingest({i: i % 7 for i in range(50)})
        counts, patches = _walk_counter()
        with patches[0], patches[1]:
            profiler.mode()
            profiler.top_k(5)
            profiler.histogram()
            profiler.quantile(0.5)
        # The standalone histogram call walks; the fused plan absorbs it
        # (and every other traversal) into its single walk.
        assert counts["desc"] + counts["asc"] >= 1

    def test_point_queries_do_not_walk(self):
        profiler = Profiler.open(20)
        profiler.ingest({1: 3})
        counts, patches = _walk_counter()
        with patches[0], patches[1]:
            result = profiler.evaluate(Query.frequency(1), Query.total())
        assert counts["desc"] == counts["asc"] == 0
        assert result[Query.frequency(1)] == 3
