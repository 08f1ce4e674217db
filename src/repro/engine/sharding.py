"""Hash-sharded profiling: N independent S-Profiles behind one facade.

One :class:`~repro.core.profile.SProfile` is already O(1) per event, but
a single instance is one Python object on one core with one GIL-bound
hot loop.  Scaling past it means partitioning the key space: shard
``s = x % n_shards`` owns every object whose id is congruent to ``s``,
stored under the local dense id ``x // n_shards``.  The modulus is the
hash function — dense ids are already uniformly distributed by
construction (see :class:`~repro.core.interner.ObjectInterner`), so the
fixed partition balances shards to within one object.

Updates route to exactly one shard and keep the O(1) bound.  Batch
ingestion (:meth:`ShardedProfiler.add_many` etc.) splits the coalesced
batch per shard and rides each shard's climb fast path — the unit of
work a thread/process pool would distribute; the partition guarantees
the per-shard batches touch disjoint state.

Queries are merges of the shards' own answers, computed by the pure
functions of :mod:`repro.engine.merge` — the same ones the cluster
router applies to its replicas' answers.  Extremes compare the shard
extremes, O(N); histogram-based answers (order statistics, the
k-th holder, the heavy-hitter cut) k-way merge the shard histograms,
O(N + total blocks); ``top_k`` heap-merges the shards' own top lists.

Every answer is *exact* — sharding trades the O(1) query bound for an
O(N + B) merge, never for approximation.  Equivalence with a single
sequential profile is asserted property-style in
``tests/property/test_prop_batch_shard.py``.
"""

from __future__ import annotations

from collections import Counter
from heapq import merge as _heap_merge
from typing import Iterable, Iterator

import numpy as np

from repro.core.flat import FlatProfile
from repro.core.profile import SProfile
from repro.core.queries import ModeResult, TopEntry
from repro.core.snapshot import ProfileSnapshot
from repro.core.validation import audit_profile
from repro.engine import merge
from repro.errors import CapacityError, FrequencyUnderflowError

__all__ = ["ShardedProfiler", "coerce_id_batch", "partition_ids"]


def coerce_id_batch(xs):
    """The materialized batch as a clean 1-d integer ndarray, or
    ``None`` when the vectorized partition does not apply (a batch
    that is not integer-array-shaped — callers then take their
    per-key dict pipeline)."""
    arr = np.asarray(xs)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        return None
    return arr


def partition_ids(arr, n_parts: int, m: int):
    """Range-validate and partition dense ids over ``n_parts`` owners.

    The single definition of the engines' partition rule (owner
    ``x % n_parts``, local id ``x // n_parts``) and of its batch
    validation — a bad id rejects the whole batch before any owner is
    touched.  Returns ``(residue, local)`` arrays; shared by the
    sharded engine and the cluster router so the two can never drift.
    """
    lo = int(arr.min())
    hi = int(arr.max())
    if lo < 0 or hi >= m:
        bad = lo if lo < 0 else hi
        raise CapacityError(f"object id {bad} out of range [0, {m})")
    return arr % n_parts, arr // n_parts


class ShardedProfiler:
    """Partition ``[0, capacity)`` over ``n_shards`` independent profiles.

    Parameters
    ----------
    capacity:
        ``m``, the global universe size; ids are dense ints as in
        :class:`~repro.core.profile.SProfile`.
    n_shards:
        Number of independent S-Profiles.  Shards own the residue
        classes of ``x % n_shards``, so capacities differ by at most
        one.  ``n_shards=1`` degenerates to a single profile.
    allow_negative / track_freq_index:
        Forwarded to every shard.
    core:
        Per-shard engine: ``"sprofile"`` (block objects, default, the
        only core that honours ``track_freq_index``) or ``"flat"``
        (struct-of-arrays :class:`~repro.core.flat.FlatProfile`; the
        facade's sharded backend uses flat cores).  Both answer
        identically; only the constants differ.

    Examples
    --------
    >>> p = ShardedProfiler(capacity=6, n_shards=3)
    >>> p.add_many([1, 1, 4, 1, 2])
    5
    >>> p.mode().frequency, p.mode().example
    (3, 1)
    >>> p.median_frequency()
    0
    >>> [p.frequency(x) for x in range(6)]
    [0, 3, 1, 0, 1, 0]
    """

    #: Registry-facing metadata (duck-typed counterpart of ProfilerBase).
    name = "sharded-sprofile"
    SUPPORTED_QUERIES = SProfile.SUPPORTED_QUERIES

    __slots__ = ("_m", "_n_shards", "_shards", "_core")

    def __init__(
        self,
        capacity: int,
        *,
        n_shards: int = 4,
        allow_negative: bool = True,
        track_freq_index: bool = False,
        core: str = "sprofile",
    ) -> None:
        if capacity < 0:
            raise CapacityError(f"capacity must be >= 0, got {capacity}")
        if n_shards <= 0:
            raise CapacityError(f"n_shards must be positive, got {n_shards}")
        if core not in ("sprofile", "flat"):
            raise CapacityError(
                f"core must be 'sprofile' or 'flat', got {core!r}"
            )
        if core == "flat" and track_freq_index:
            raise CapacityError(
                "flat shard cores keep no frequency index; use "
                "core='sprofile' with track_freq_index=True"
            )
        self._m = capacity
        self._n_shards = n_shards
        self._core = core
        # Shard s holds ids {x : x % n_shards == s}; count per shard.
        if core == "flat":
            self._shards: tuple = tuple(
                FlatProfile(
                    (capacity - s + n_shards - 1) // n_shards,
                    allow_negative=allow_negative,
                )
                for s in range(n_shards)
            )
        else:
            self._shards = tuple(
                SProfile(
                    (capacity - s + n_shards - 1) // n_shards,
                    allow_negative=allow_negative,
                    track_freq_index=track_freq_index,
                )
                for s in range(n_shards)
            )

    # ------------------------------------------------------------------
    # Partition
    # ------------------------------------------------------------------

    def shard_of(self, x: int) -> int:
        """Index of the shard owning object ``x``."""
        self._check_object(x)
        return x % self._n_shards

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def core(self) -> str:
        """Per-shard engine kind: ``"sprofile"`` or ``"flat"``."""
        return self._core

    @property
    def shards(self) -> tuple:
        """The backing per-shard profiles (read access)."""
        return self._shards

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, x: int) -> None:
        """Process one add.  O(1): route to the owning shard."""
        self._check_object(x)
        self._shards[x % self._n_shards].add(x // self._n_shards)

    def remove(self, x: int) -> None:
        """Process one remove.  O(1): route to the owning shard."""
        self._check_object(x)
        self._shards[x % self._n_shards].remove(x // self._n_shards)

    def update(self, x: int, is_add: bool) -> None:
        if is_add:
            self.add(x)
        else:
            self.remove(x)

    def consume(self, events: Iterable[tuple[int, bool]]) -> int:
        """Apply ``(object, is_add)`` tuples in order; return count."""
        n = 0
        for x, is_add in events:
            if is_add:
                self.add(x)
            else:
                self.remove(x)
            n += 1
        return n

    def consume_arrays(self, ids, adds) -> int:
        """Apply parallel id/flag arrays (numpy or sequences)."""
        id_list = ids.tolist() if hasattr(ids, "tolist") else list(ids)
        add_list = adds.tolist() if hasattr(adds, "tolist") else list(adds)
        if len(id_list) != len(add_list):
            raise CapacityError(
                f"ids ({len(id_list)}) and adds ({len(add_list)}) differ"
            )
        return self.consume(zip(id_list, add_list))

    def add_many(self, xs: Iterable[int]) -> int:
        """Batch adds: coalesce, split per shard, climb per shard.

        Batch semantics as in :meth:`repro.core.profile.SProfile.add_many`.
        Integer-array batches split vectorized (one modulus pass plus
        one boolean selection per shard, all C speed) and each shard
        ingests its ndarray slice through its own ``add_many`` — the
        unit of work a worker pool would distribute.
        """
        if not hasattr(xs, "__len__"):
            xs = list(xs)
        split = self._split_np(xs)
        if split is not None:
            shards = self._shards
            return sum(
                shards[s].add_many(local) for s, local in split
            )
        counts = Counter(xs)
        if not counts:
            return 0
        return self._apply_split(counts.items(), +1)

    def remove_many(self, xs: Iterable[int]) -> int:
        """Batch removes; mirror of :meth:`add_many`.

        The vectorized split only runs in negative mode: strict-mode
        rejection must be all-or-nothing *across* shards, which the
        dict path pre-checks before any shard mutates.
        """
        if not hasattr(xs, "__len__"):
            xs = list(xs)
        if self.allow_negative:
            split = self._split_np(xs)
            if split is not None:
                shards = self._shards
                return sum(
                    shards[s].remove_many(local) for s, local in split
                )
        counts = Counter(xs)
        if not counts:
            return 0
        return self._apply_split(counts.items(), -1)

    def _split_np(self, xs):
        """Partition a materialized integer batch into per-shard dense
        ndarrays, or ``None`` when the vectorized path does not apply
        (not a clean one-dimensional integer batch).

        Validates the global id range first, so a bad id rejects the
        whole batch before any shard mutates.
        """
        arr = coerce_id_batch(xs)
        if arr is None:
            return None
        if arr.size == 0:
            return []
        n_shards = self._n_shards
        residue, local = partition_ids(arr, n_shards, self._m)
        out = []
        for s in range(n_shards):
            sel = local[residue == s]
            if sel.size:
                out.append((s, sel))
        return out

    def apply(self, deltas) -> int:
        """Apply ``(object, delta)`` pairs (or a mapping) per shard.

        Net-zero keys are untouched.  Bad ids and strict-mode
        underflows are detected before any shard is mutated, so a
        rejected batch leaves the whole engine untouched and may be
        re-submitted.
        """
        items = deltas.items() if hasattr(deltas, "items") else deltas
        return self._apply_split(items, +1)

    def _apply_split(self, items, sign: int) -> int:
        n_shards = self._n_shards
        m = self._m
        shards = self._shards
        per_shard: list[dict[int, int]] = [{} for _ in range(n_shards)]
        for x, d in items:
            if not 0 <= x < m:
                raise CapacityError(
                    f"object id {x} out of range [0, {m})"
                )
            shard = per_shard[x % n_shards]
            local = x // n_shards
            shard[local] = shard.get(local, 0) + sign * d
        if not self.allow_negative:
            # All-or-nothing across shards: surface every strict-mode
            # underflow before the first shard mutates.
            for s, chunk in enumerate(per_shard):
                shard = shards[s]
                for local, d in chunk.items():
                    if d < 0 and shard.frequency(local) + d < 0:
                        raise FrequencyUnderflowError(
                            f"removing object {local * n_shards + s} at "
                            f"frequency {shard.frequency(local)} "
                            f"{-d} times (net) would go negative"
                        )
        n = 0
        for s, chunk in enumerate(per_shard):
            if chunk:
                n += shards[s].apply(chunk)
        return n

    def clear(self) -> None:
        """Reset every frequency to zero (keeps capacity and settings)."""
        for shard in self._shards:
            shard.clear()

    # ------------------------------------------------------------------
    # Point lookups and accounting
    # ------------------------------------------------------------------

    def frequency(self, x: int) -> int:
        """Net count of ``x``.  O(1): one shard lookup."""
        self._check_object(x)
        return self._shards[x % self._n_shards].frequency(
            x // self._n_shards
        )

    def frequencies(self) -> list[int]:
        """Materialize the global frequency array (O(m)).

        One strided assignment per shard into a preallocated ``int64``
        buffer (flat cores hand over their frequency ndarray directly
        — no per-key Python interleaving at all).
        """
        n_shards = self._n_shards
        out = np.zeros(self._m, dtype=np.int64)
        for s, shard in enumerate(self._shards):
            native = getattr(shard, "_frequencies_np", None)
            out[s::n_shards] = (
                native() if native is not None else shard.frequencies()
            )
        return out.tolist()

    @property
    def capacity(self) -> int:
        return self._m

    @property
    def total(self) -> int:
        return sum(shard.total for shard in self._shards)

    @property
    def n_adds(self) -> int:
        return sum(shard.n_adds for shard in self._shards)

    @property
    def n_removes(self) -> int:
        return sum(shard.n_removes for shard in self._shards)

    @property
    def n_events(self) -> int:
        return sum(shard.n_events for shard in self._shards)

    @property
    def active_count(self) -> int:
        return sum(shard.active_count for shard in self._shards)

    @property
    def block_count(self) -> int:
        """Total blocks across shards (>= the unsharded block count)."""
        return sum(shard.block_count for shard in self._shards)

    @property
    def allow_negative(self) -> bool:
        return self._shards[0].allow_negative if self._shards else True

    # ------------------------------------------------------------------
    # Merged queries — see repro.engine.merge
    # ------------------------------------------------------------------

    def _answers(self, query: str, *args) -> list:
        """``(s, shard.query(*args))`` for every shard holding ids."""
        return [
            (s, getattr(shard, query)(*args))
            for s, shard in enumerate(self._shards)
            if shard.capacity
        ]

    def mode(self) -> ModeResult:
        """Most frequent object(s): merge the shard maxima.  O(N)."""
        return merge.merge_extremes(
            self._answers("mode"), self._n_shards, desc=True
        )

    def least(self) -> ModeResult:
        """Least frequent object(s): merge the shard minima.  O(N)."""
        return merge.merge_extremes(
            self._answers("least"), self._n_shards, desc=False
        )

    def max_frequency(self) -> int:
        """The largest frequency.  O(N)."""
        return merge.extreme_frequency(
            self._answers("max_frequency"), desc=True
        )

    def min_frequency(self) -> int:
        """The smallest frequency.  O(N)."""
        return merge.extreme_frequency(
            self._answers("min_frequency"), desc=False
        )

    def majority(self) -> int | None:
        """The object holding more than half the total mass, if any."""
        if self._m == 0:
            return None
        total = self.total
        if total <= 0:
            return None
        top = self.mode()
        if 2 * top.frequency > total:
            return top.example
        return None

    def top_k(self, k: int) -> list[TopEntry]:
        """The ``min(k, m)`` most frequent objects, descending.

        Heap-merges the shards' own ``top_k(k)`` lists.
        """
        return merge.merge_top(
            self._answers("top_k", k), self._n_shards, k
        )

    def kth_most_frequent(self, k: int) -> TopEntry:
        """The object of k-th largest frequency (1-based).

        O(total blocks): the merged histogram fixes the frequency and
        the first shard holding it; that shard names its object.
        """
        _f, s, local_rank = merge.kth_holder(self._answers("histogram"), k)
        return merge.to_global(
            self._shards[s].kth_most_frequent(local_rank), s, self._n_shards
        )

    def frequency_at_rank(self, rank: int) -> int:
        """``T[rank]`` of the merged sorted array.  O(total blocks)."""
        return merge.rank_frequency(self.histogram(), rank)

    def median_frequency(self) -> int:
        """Lower median of the merged frequency array.  O(total blocks)."""
        return merge.median_frequency(self.histogram())

    def quantile(self, q: float) -> int:
        """Frequency at quantile ``q`` (see
        :func:`~repro.core.queries.quantile_rank`).  O(total blocks)."""
        return merge.quantile(self.histogram(), q)

    def histogram(self) -> list[tuple[int, int]]:
        """``(frequency, #objects)`` ascending: merged shard histograms.

        O(N + total blocks) via a k-way merge summing equal frequencies.
        """
        return merge.merge_histograms(self._answers("histogram"))

    def support(self, f: int) -> int:
        """Number of objects at frequency exactly ``f``.  O(N) lookups."""
        return sum(shard.support(f) for shard in self._shards)

    def objects_with_frequency(
        self, f: int, limit: int | None = None
    ) -> list[int]:
        """Objects at frequency ``f`` (up to ``limit``), global ids."""
        out: list[int] = []
        for s, shard in enumerate(self._shards):
            rest = None if limit is None else limit - len(out)
            if rest is not None and rest <= 0:
                break
            out.extend(
                int(local) * self._n_shards + s
                for local in shard.objects_with_frequency(f, limit=rest)
            )
        return out

    def heavy_hitters(self, phi: float) -> list[TopEntry]:
        """Objects with frequency > ``phi * total`` — exact, merged.

        The threshold uses the *global* total; the merged histograms
        say how many qualifiers each shard holds, and each shard hands
        over exactly those from its own ``top_k``.
        """
        cut = merge.heavy_cut(self._answers("histogram"), self.total, phi)
        return merge.merge_top(
            [(s, self._shards[s].top_k(count)) for s, count in cut],
            self._n_shards,
            sum(count for _, count in cut),
        )

    def iter_sorted(self) -> Iterator[TopEntry]:
        """Yield global ``(object, frequency)`` ascending by frequency."""
        walks = (
            self._shard_walk_asc(s, shard)
            for s, shard in enumerate(self._shards)
        )
        return _heap_merge(*walks, key=lambda e: e.frequency)

    def _shard_walk_asc(
        self, s: int, shard: SProfile
    ) -> Iterator[TopEntry]:
        n_shards = self._n_shards
        for obj, f in shard.iter_sorted():
            yield TopEntry(int(obj) * n_shards + s, f)

    # ------------------------------------------------------------------
    # Structure management
    # ------------------------------------------------------------------

    def snapshot(self) -> ProfileSnapshot:
        """Frozen merged snapshot answering single-profile queries.

        O(m log m): materializes the merged frequency array and sorts
        once — snapshots are for offline analysis, not the hot path.
        """
        freqs = self.frequencies()
        merged = SProfile.from_frequencies(
            freqs, allow_negative=self.allow_negative
        )
        return ProfileSnapshot(
            ttof=merged._ttof,
            runs=merged.blocks.as_tuples(),
            total=self.total,
            n_events=self.n_events,
        )

    def audit(self) -> None:
        """Audit every shard's structural invariants."""
        for shard in self._shards:
            audit_profile(shard)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _check_object(self, x: int) -> None:
        if not 0 <= x < self._m:
            raise CapacityError(
                f"object id {x} out of range [0, {self._m})"
            )

    def __repr__(self) -> str:
        return (
            f"ShardedProfiler(capacity={self._m}, "
            f"n_shards={self._n_shards}, total={self.total}, "
            f"events={self.n_events})"
        )
