"""Unit tests for the facade's batch admission: ``Profiler.ingest_batches``.

Outcome ``i`` of ``ingest_batches`` must be what ``ingest(batches[i])``
returns or raises once the batches admitted before it are applied; the
admitted batches then land in one merged core call.  The served form of
the same contract is property-tested in
``tests/property/test_prop_server_equivalence.py``.
"""

import random

import numpy as np
import pytest

from repro.api import Profiler
from repro.baselines.registry import available_profilers
from repro.cluster.merge import partition_batch
from repro.core.profile import NETTING_CROSSOVER, ArrayBatch, net_batch
from repro.errors import CapacityError, FrequencyUnderflowError

DENSE_BACKENDS = available_profilers() + ("flat", "exact", "flat-array")

#: Batch lengths on both sides of the netting crossover: short ones,
#: the longest batch a dict nets, and the two shortest NumPy nets.
LENGTHS = (1, 2, 3, 4, NETTING_CROSSOVER - 1, NETTING_CROSSOVER,
           NETTING_CROSSOVER + 1)


def open_dense(backend, capacity, strict):
    if backend == "flat-array":
        return Profiler.open(
            capacity, backend="flat", array_engine=True, strict=strict
        )
    return Profiler.open(capacity, backend=backend, strict=strict)


def random_pairs(rng, capacity):
    """One batch of a random length from :data:`LENGTHS`; one in five
    carries an out-of-range id."""
    n = rng.choice(LENGTHS)
    pairs = [(rng.randrange(capacity), rng.randint(-3, 4)) for _ in range(n)]
    if rng.random() < 0.2:
        bad = rng.choice([-1, capacity, capacity + 1])
        pairs[rng.randrange(n)] = (bad, rng.randint(-3, 3))
    return pairs


def kinds(outcomes):
    """Outcomes with exceptions replaced by their types."""
    return [
        type(o) if isinstance(o, Exception) else o for o in outcomes
    ]


class TestAdmission:
    def test_dense_strict_sees_admitted_batches(self):
        profiler = Profiler.open(10, strict=True)
        outcomes = profiler.ingest_batches(
            # The second batch is admissible only because the first
            # is counted; the third then underflows.
            [[(1, +2)], [(1, -2)], [(1, -1)]]
        )
        assert kinds(outcomes) == [2, 2, FrequencyUnderflowError]
        assert profiler.frequency(1) == 0
        assert profiler.batches_ingested == 2

    def test_dense_bad_id_rejects_only_its_batch(self):
        profiler = Profiler.open(10)
        outcomes = profiler.ingest_batches(
            [[(1, +1)], [(4, +1), (10, +1), (10, -1)], [(2, -1)]]
        )
        assert kinds(outcomes) == [1, CapacityError, 1]
        assert profiler.frequencies()[:5] == [0, 1, -1, 0, 0]
        assert profiler.batches_ingested == 2

    def test_interned_capacity_masking(self):
        """Fresh-key registration is charged in arrival order; a later
        cancellation in another batch does not refund it."""
        profiler = Profiler.open(2, backend="flat", keys="hashable")
        profiler.ingest({"a": 1, "b": 1})
        outcomes = profiler.ingest_batches([[("c", +1)], [("a", -1)]])
        assert kinds(outcomes) == [CapacityError, 1]
        assert "c" not in profiler

    def test_interned_fresh_keys_count_once(self):
        profiler = Profiler.open(3, backend="flat", keys="hashable")
        outcomes = profiler.ingest_batches(
            [[("x", +1)], [("x", +1), ("y", +1)], [("z", +1)], [("w", +1)]]
        )
        assert kinds(outcomes) == [1, 2, 1, CapacityError]
        assert list(profiler.frequencies()) == [2, 1, 1]

    def test_keys_cancelling_across_batches_still_register(self):
        profiler = Profiler.open(keys="hashable")
        assert profiler.ingest_batches([[("a", +1)], [("a", -1)]]) == [1, 1]
        assert "a" in profiler and len(profiler) == 1
        assert profiler.support(0) == 1

    def test_approx_is_add_only_per_batch(self):
        profiler = Profiler.open(backend="approx", counters=4)
        outcomes = profiler.ingest_batches([[("a", +3)], [("a", -1)]])
        assert kinds(outcomes) == [3, CapacityError]
        assert profiler.frequency("a") == 3

    def test_growable_universe_has_no_capacity_bound(self):
        profiler = Profiler.open(keys="hashable")
        outcomes = profiler.ingest_batches(
            [[(f"k{i}", 1) for i in range(20)], [("k0", 1), ("new", 1)]]
        )
        assert outcomes == [20, 2]
        assert len(profiler) == 21

    def test_growable_strict_never_seen(self):
        profiler = Profiler.open(keys="hashable", strict=True)
        outcomes = profiler.ingest_batches(
            [[("ghost", -1)], [("real", +1)], [("real", -1)]]
        )
        assert kinds(outcomes) == [FrequencyUnderflowError, 1, 1]
        assert "ghost" not in profiler
        assert profiler.frequency("real") == 0

    def test_array_batches_need_dense_keys(self):
        profiler = Profiler.open(keys="hashable")
        batch = ArrayBatch(np.array([1]), np.array([1]))
        assert kinds(profiler.ingest_batches([batch])) == [CapacityError]


class TestMixedCodecs:
    @pytest.mark.parametrize("backend", ["flat", "exact", "flat-array"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_array_and_pair_batches_in_one_call(self, backend, strict):
        profiler = open_dense(backend, 10, strict)
        outcomes = profiler.ingest_batches(
            [
                ArrayBatch(np.array([1, 1, 2]), np.array([2, 1, 1])),
                [(1, -3), (3, +1)],
                ArrayBatch(np.array([5, 99]), np.array([1, 1])),
                [(2, -1)],
            ]
        )
        assert kinds(outcomes) == [4, 4, CapacityError, 1]
        assert profiler.frequencies()[:4] == [0, 0, 0, 1]
        assert profiler.batches_ingested == 3
        assert profiler.events_ingested == 3 + 2 + 1


class TestMatchesOneIngestPerBatch:
    @pytest.mark.parametrize("capacity", [6, 600])
    @pytest.mark.parametrize("backend", ["flat", "exact", "flat-array",
                                         "bucket", "tree-fenwick"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_random_flushes(self, backend, strict, capacity):
        """Batch lengths straddle the netting crossover, so one flush
        mixes dict-netted and NumPy-netted array batches with pair
        batches; at capacity 600 a long batch names about a third of
        the universe, so it climbs on the exact core (rebuild at m/2)
        and rebuilds on a flat list-engine core (rebuild at m/4),
        through ``apply`` and ``apply_arrays`` alike."""
        rng = random.Random(f"{backend}-{strict}-{capacity}")
        merged = open_dense(backend, capacity, strict)
        reference = open_dense(backend, capacity, strict)
        arrays = backend in ("flat", "exact", "flat-array")
        for _flush in range(40):
            batches = []
            for _ in range(rng.randint(1, 5)):
                pairs = random_pairs(rng, capacity)
                if arrays and rng.random() < 0.5:
                    ids, deltas = zip(*pairs)
                    batches.append(ArrayBatch(np.array(ids), np.array(deltas)))
                else:
                    batches.append(pairs)
            outcomes = merged.ingest_batches(batches)
            for batch, outcome in zip(batches, outcomes):
                try:
                    if isinstance(batch, ArrayBatch):
                        expected = reference.ingest_arrays(
                            batch.ids, batch.deltas
                        )
                    else:
                        expected = reference.ingest(batch)
                except Exception as exc:  # noqa: BLE001 - compared
                    assert type(outcome) is type(exc), (batch, outcome)
                else:
                    assert outcome == expected, batch
            assert merged.frequencies() == reference.frequencies()
        assert merged.batches_ingested == reference.batches_ingested
        assert merged.events_ingested == reference.events_ingested


class TestNettingCrossover:
    def test_net_batch_picks_its_method_by_length(self):
        for n, kind in ((NETTING_CROSSOVER - 1, dict),
                        (NETTING_CROSSOVER, tuple)):
            ids = np.arange(n, dtype=np.int64) % 7
            net = net_batch(ids, np.ones(n, dtype=np.int64))
            assert isinstance(net, kind)
            sums = net if kind is dict else dict(
                zip(net[0].tolist(), net[1].tolist())
            )
            assert sums == {k: ids.tolist().count(k) for k in range(7)}

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("codec", ["binary", "json"])
    def test_partition_applied_is_the_ingest_return(self, n, codec):
        rng = np.random.default_rng(n)
        m = 50
        ids = rng.integers(0, m, n, dtype=np.int64)
        deltas = rng.integers(-3, 4, n, dtype=np.int64)
        pairs = list(zip(ids.tolist(), deltas.tolist()))
        data = ArrayBatch(ids, deltas) if codec == "binary" else pairs
        _parts, applied = partition_batch(data, 3, m)
        assert applied == Profiler.open(m).ingest(pairs)

    @pytest.mark.parametrize("backend", ["flat", "exact", "flat-array"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_bad_id_in_small_array_batch_rejects_only_it(
        self, backend, strict
    ):
        """A dict-netted batch whose bad id nets to zero is still
        rejected alone; the NumPy-netted batch beside it lands."""
        profiler = open_dense(backend, 10, strict)
        long_ids = np.arange(NETTING_CROSSOVER, dtype=np.int64) % 10
        outcomes = profiler.ingest_batches(
            [
                ArrayBatch(np.array([1, 2]), np.array([1, 1])),
                ArrayBatch(np.array([3, 10, 10]), np.array([1, 1, -1])),
                ArrayBatch(long_ids, np.ones(NETTING_CROSSOVER, np.int64)),
                [(4, 1)],
            ]
        )
        assert kinds(outcomes) == [2, CapacityError, NETTING_CROSSOVER, 1]
        expected = np.bincount(long_ids, minlength=10)
        expected[[1, 2, 4]] += 1
        assert profiler.frequencies() == expected.tolist()
        assert profiler.batches_ingested == 3


class TestOneAdmissionRule:
    @pytest.mark.parametrize("backend", DENSE_BACKENDS)
    def test_range_error_precedes_underflow(self, backend):
        """Every dense backend checks every id's range before any
        underflow, so one batch fails with one error everywhere."""
        profiler = open_dense(backend, 10, strict=True)
        with pytest.raises(CapacityError):
            profiler.ingest([(1, -5), (99, +1)])
        assert profiler.total == 0

    def test_admit_holds_a_lenient_profiler_to_strict_rules(self):
        profiler = Profiler.open(10)
        profiler.ingest({4: 1})
        pending = {4: 2}
        assert profiler.admit([(4, -3), (5, 1), (5, -1)], pending) == {
            4: -3,
            5: 0,
        }
        assert pending == {4: -1, 5: 0}
        with pytest.raises(FrequencyUnderflowError):
            profiler.admit([(4, -1)], pending)
        with pytest.raises(CapacityError):
            profiler.admit([(4, -9), (10, 1)], pending)
        assert pending == {4: -1, 5: 0}
        # Nothing was applied.
        assert profiler.frequency(4) == 1
        assert profiler.total == 1

    def test_admit_refuses_hashable_keys(self):
        profiler = Profiler.open(keys="hashable")
        with pytest.raises(CapacityError):
            profiler.admit([("a", 1)], {})
