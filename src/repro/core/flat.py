"""FlatProfile: Algorithm 1 on parallel flat integer arrays.

:class:`~repro.core.profile.SProfile` is already O(1) per event, but in
CPython every one of those O(1) steps pays object overhead: each rank
resolves through a list of :class:`~repro.core.block.Block` instances
(pointer chase + slot-attribute dispatch), and block birth/death churns
the :class:`~repro.core.block.BlockPool` free list through bound-method
calls.  ``FlatProfile`` stores the *same* structure as parallel flat
integer arrays — the struct-of-arrays layout Tarjan–Zwick use to keep
resizable-array items at raw-array speed, and the layout profile-sketch
estimators assume —

- ``_ftot`` / ``_ttof``: the paper's FtoT / TtoF permutations, plain
  int lists;
- ``_ptrb``: rank -> *block id* (an int), the paper's PtrB;
- ``_bl`` / ``_bre`` / ``_bf``: block id -> left rank / exclusive
  right bound / frequency, three parallel int lists replacing Block
  objects.  Blocks are **half-open** ``[l, re)`` internally: the
  exclusive bound doubles as (a) the rank index of the right
  neighbour's pointer and (b) the shrunken bound after an add detaches
  the right edge, so the dominant update path re-uses loaded ints
  instead of allocating ``r±1`` objects (CPython only caches ints up
  to 256; rank arithmetic above that allocates).  The read API
  (:class:`_FlatBlockReader`) still presents the paper's inclusive
  ``(l, r, f)`` triples;
- ``_prev`` / ``_nxt``: rank predecessor/successor tables
  (``prev[k] == k-1``, ``nxt[k] == k+1``).  CPython only caches small
  ints, so every ``r±1`` on a rank above 256 *allocates* an int
  object; reading the neighbour rank out of an immutable table turns
  all rank arithmetic in the hot loops into allocation-free list
  loads — the single biggest constant-factor lever measured here
  (+30-50% on the fused paths).  Both tables and the permutations
  share **one rank range** (:class:`_RankRange`): each is a slice of
  a single materialised ``-1 .. m+1``, so a rank is one int object
  however many tables hold it (~72 traced bytes per key for a fresh
  profile, not ~168 with a separate range per table).  The range is
  shared by every live list-engine profile of one capacity, through a
  weak map (:func:`_rank_range`), and released with the last of them:
  a second live profile of the same capacity costs ~24 B/key, and
  building or dropping one allocates or frees no int objects;
- dead block ids are recycled through an intrusive free list threaded
  through ``_bl`` (``_bl[dead] = next dead id``, head in
  ``_free_head``) — no pool object, no ``append``/``pop`` calls.

Every update therefore touches only integer loads and stores on lists.
The payoff is largest on the stream-consumption paths
(:meth:`FlatProfile.consume_arrays`,
:meth:`FlatProfile.track_statistic`), which inline the whole update
into one loop with every lookup hoisted to a local — there is no
per-event method dispatch at all.  ``benchmarks/`` and
``python -m repro.bench trajectory`` measure the effect (~2x per-event
throughput, >4x batch ingestion; see ``BENCH_core.json``).

Two structural notes:

- The live block *count* is never maintained on the hot path: every
  minted slot is either live or on the free list, so ``block_count``
  is derived by walking the runs (O(#blocks)).
- Statistic upkeep inside the fused loops exploits a property of the
  ±1 update: an add changes the sorted array ``T`` at exactly one rank
  (the right edge ``r`` of the touched block, ``T[r] = f+1``) and a
  remove at exactly its left edge ``l``.  Keeping *any* fixed-rank
  statistic (mode = rank ``m-1``, median = rank ``(m-1)//2``, minimum
  = rank 0) current is therefore at most a single compare per event —
  and free for the mode, whose compare folds into branches the update
  takes anyway.

Batch ingestion mirrors :class:`SProfile`'s two regimes: sparse batches
climb the block structure per key; dense batches rebuild wholesale —
vectorized through NumPy (one ``bincount`` to coalesce, one
``argsort`` plus a run-length encode to rebuild, all C speed).

**The array engine** (``array_engine=True``) keeps the same structure in
preallocated ``int64`` NumPy buffers instead of Python lists.  The
block-slot arrays grow by amortized doubling (the Tarjan–Zwick
resizable-array discipline), so state is a handful of contiguous
buffers:

- zero-copy snapshots and checkpoints — exporting state is O(buffers)
  Python objects (see
  :func:`repro.core.checkpoint.flat_profile_to_array_state`), not O(m)
  boxed ints;
- the vectorized batch paths write **in place** into the buffers.

The per-event hot loops still run at list speed: the fused stream paths
materialize list mirrors, run the canonical loops, and write the result
back into the buffers in one C-speed pass per array — an O(m + batch)
round-trip that amortizes over any real batch and keeps exactly one
copy of the update logic.
"""

from __future__ import annotations

import weakref
from collections import Counter
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as _np

from repro.core.block import Block
from repro.core.profile import net_deltas
from repro.core.queries import ProfileQueryMixin
from repro.errors import (
    CapacityError,
    EmptyProfileError,
    FrequencyUnderflowError,
    InvariantViolationError,
)

__all__ = ["FlatProfile"]


class _RankRange:
    """List-engine ``prev``/``nxt`` for one capacity ``m``: two slices
    of one materialised range ``-1 .. m+1``.

    Every other list that holds ranks takes its ints from ``prev``
    (``prev[k + 1] == k``) — the identity ``ftot``/``ttof`` of a fresh
    profile, the ``ftot`` that :meth:`FlatProfile._install_runs` fills
    and the ``ttof`` that :meth:`FlatProfile.grow` splices — so each
    rank is one int object shared by all of them.  Neither table is
    ever written, so every live profile of one capacity shares one
    range (:func:`_rank_range`).
    """

    __slots__ = ("prev", "nxt", "__weakref__")

    def __init__(self, m: int) -> None:
        ranks = list(range(-1, m + 2))
        self.prev = ranks[: m + 1]
        self.nxt = ranks[2:]


#: capacity -> the range its live list-engine profiles share.  Held
#: weakly: each profile keeps its range alive, so the last profile of a
#: capacity takes the O(m) range with it.
_RANGES: "weakref.WeakValueDictionary[int, _RankRange]" = (
    weakref.WeakValueDictionary()
)


def _rank_range(m: int) -> _RankRange:
    """The shared rank range for capacity ``m``, built on first use.

    Two threads racing on a new ``m`` at worst build two ranges; each
    stays valid, only unshared.
    """
    ranks = _RANGES.get(m)
    if ranks is None:
        ranks = _RANGES[m] = _RankRange(m)
    return ranks


class _FlatBlockReader:
    """Read-only :class:`~repro.core.blockset.BlockSet` facade over the
    flat arrays.

    Materializes :class:`~repro.core.block.Block` values (inclusive
    ``(l, r, f)``, the paper's notation) on demand so every block-walk
    consumer of the package — the query mixin,
    :func:`~repro.core.validation.audit_profile`, snapshots, the
    sharded merges, the fused-plan runs views — drives a
    ``FlatProfile`` unchanged.  The view is stateless: it reads the
    live arrays, so it never goes stale.  It is built per access
    (:attr:`FlatProfile.blocks`), so the profile holds no reference to
    it: no profile <-> view cycle, and a dropped profile is freed by
    refcount at once instead of waiting for the cyclic GC.
    """

    __slots__ = ("_p",)

    def __init__(self, profile: "FlatProfile") -> None:
        self._p = profile

    @property
    def capacity(self) -> int:
        return self._p._m

    @property
    def n_blocks(self) -> int:
        return self._p.block_count

    @property
    def tracks_freq_index(self) -> bool:
        return False

    def block_at(self, rank: int) -> Block:
        p = self._p
        if not 0 <= rank < p._m:
            raise IndexError(f"rank {rank} out of range [0, {p._m})")
        b = p._ptrb[rank]
        # int() keeps np.int64 scalars (array engine) out of Block
        # fields — downstream consumers JSON-serialize and hash them.
        return Block(int(p._bl[b]), int(p._bre[b]) - 1, int(p._bf[b]))

    def leftmost(self) -> Block:
        self._require_nonempty()
        return self.block_at(0)

    def rightmost(self) -> Block:
        self._require_nonempty()
        return self.block_at(self._p._m - 1)

    def iter_blocks(self) -> Iterator[Block]:
        p = self._p
        ptrb = p._ptrb
        bl = p._bl
        bre = p._bre
        bf = p._bf
        m = p._m
        rank = 0
        while rank < m:
            b = ptrb[rank]
            re = int(bre[b])
            yield Block(int(bl[b]), re - 1, int(bf[b]))
            rank = re

    def iter_blocks_desc(self) -> Iterator[Block]:
        p = self._p
        ptrb = p._ptrb
        bl = p._bl
        bre = p._bre
        bf = p._bf
        rank = p._m - 1
        while rank >= 0:
            b = ptrb[rank]
            l = int(bl[b])
            yield Block(l, int(bre[b]) - 1, int(bf[b]))
            rank = l - 1

    def block_for_frequency(self, f: int) -> Block | None:
        for block in self.iter_blocks():
            if block.f == f:
                return block
            if block.f > f:
                return None
        return None

    def as_tuples(self) -> list[tuple[int, int, int]]:
        return [block.as_tuple() for block in self.iter_blocks()]

    def audit(self) -> None:
        """Verify the flat structural invariants (mirror of
        :meth:`~repro.core.blockset.BlockSet.audit`, plus free-list
        coherence)."""
        p = self._p
        m = p._m
        if len(p._ptrb) != m:
            raise InvariantViolationError(
                f"ptrb length {len(p._ptrb)} != capacity {m}"
            )
        # Array engine: slots = minted prefix of the preallocated
        # buffers; the buffers themselves just have to agree and cover.
        slots = p.block_slots
        if p._array:
            if not (len(p._bl) == len(p._bre) == len(p._bf) >= slots):
                raise InvariantViolationError(
                    "block buffers disagree on capacity: "
                    f"l={len(p._bl)} re={len(p._bre)} f={len(p._bf)} "
                    f"minted={slots}"
                )
        elif len(p._bre) != slots or len(p._bf) != slots:
            raise InvariantViolationError(
                "block arrays disagree on slot count: "
                f"l={len(p._bl)} re={len(p._bre)} f={len(p._bf)}"
            )
        live: set[int] = set()
        prev_f: int | None = None
        rank = 0
        while rank < m:
            b = p._ptrb[rank]
            if not 0 <= b < slots:
                raise InvariantViolationError(
                    f"ptrb[{rank}] = {b} outside slot range [0, {slots})"
                )
            l, re, f = p._bl[b], p._bre[b], p._bf[b]
            if l != rank:
                raise InvariantViolationError(
                    f"block {b} [{l}, {re}) f={f} does not start at "
                    f"rank {rank}"
                )
            if re <= l or re > m:
                raise InvariantViolationError(
                    f"block {b} [{l}, {re}) f={f} has bad bounds"
                )
            if prev_f is not None and f <= prev_f:
                raise InvariantViolationError(
                    f"block frequencies not strictly increasing at "
                    f"block {b} [{l}, {re}) f={f}"
                )
            for inner in range(l, re):
                if p._ptrb[inner] != b:
                    raise InvariantViolationError(
                        f"ptrb[{inner}] does not point at covering block {b}"
                    )
            live.add(b)
            prev_f = f
            rank = re
        # Free list: walks dead slots only, visits each at most once,
        # and together with the live set covers every minted slot.
        seen_free: set[int] = set()
        head = int(p._free_head)
        while head >= 0:
            if head >= slots:
                raise InvariantViolationError(
                    f"free list points outside the {slots} minted "
                    f"slots: {head}"
                )
            if head in live:
                raise InvariantViolationError(
                    f"free list contains live block {head}"
                )
            if head in seen_free:
                raise InvariantViolationError(
                    f"free list cycles through block {head}"
                )
            seen_free.add(head)
            head = int(p._bl[head])
        if m > 0 and len(live) + len(seen_free) != slots:
            raise InvariantViolationError(
                f"{slots} slots minted but {len(live)} live + "
                f"{len(seen_free)} free"
            )

    def _require_nonempty(self) -> None:
        if self._p._m == 0:
            raise EmptyProfileError("block set has zero capacity")

    def __repr__(self) -> str:
        return (
            f"_FlatBlockReader(capacity={self._p._m}, "
            f"n_blocks={self.n_blocks})"
        )


class FlatProfile(ProfileQueryMixin):
    """The paper's profiler on flat struct-of-arrays storage.

    Drop-in for :class:`~repro.core.profile.SProfile` (same update and
    query surface, same batch semantics, same checkpoint schema) with
    the hot path rewritten to touch only integer list loads/stores.
    Open through the facade as ``Profiler.open(m, backend="flat")`` —
    it is also what ``backend="auto"`` picks for dense keys.

    Parameters
    ----------
    capacity:
        ``m``, the number of dense object ids.
    allow_negative:
        Permit frequencies below zero (paper semantics, default).  When
        False a remove below zero raises
        :class:`~repro.errors.FrequencyUnderflowError`; the fused
        stream loops then route through the guarded per-event methods.

    Examples
    --------
    >>> p = FlatProfile(capacity=5)
    >>> for x in [1, 1, 3, 1, 2]:
    ...     p.add(x)
    >>> p.mode().frequency, p.mode().example
    (3, 1)
    >>> p.remove(1)
    >>> p.top_k(2)
    [TopEntry(obj=1, frequency=2), TopEntry(obj=3, frequency=1)]
    """

    #: Registry-facing metadata (duck-typed counterpart of ProfilerBase).
    name = "flat"
    SUPPORTED_QUERIES = frozenset(
        {
            "frequency",
            "mode",
            "least",
            "max_frequency",
            "min_frequency",
            "top_k",
            "kth_most_frequent",
            "median",
            "quantile",
            "histogram",
            "support",
        }
    )

    __slots__ = (
        "_m",
        "_ftot",
        "_ttof",
        "_ptrb",
        "_bl",
        "_bre",
        "_bf",
        "_prev",
        "_nxt",
        "_ranks",
        "_free_head",
        "_last_tracked",
        "_allow_negative",
        "_base_total",
        "_n_adds",
        "_n_removes",
        "_array",
        "_bn",
        "_obs",
        "_obs_grows",
    )

    def __init__(
        self,
        capacity: int,
        *,
        allow_negative: bool = True,
        array_engine: bool = False,
        obs=None,
    ) -> None:
        if capacity < 0:
            raise CapacityError(f"capacity must be >= 0, got {capacity}")
        self._m = capacity
        self._array = bool(array_engine)
        self._bn = 0
        if array_engine:
            self._ftot = _np.arange(capacity, dtype=_np.int64)
            self._ttof = _np.arange(capacity, dtype=_np.int64)
            self._ptrb = _np.zeros(capacity, dtype=_np.int64)
            slots = max(1, min(8, capacity)) if capacity else 1
            self._bl = _np.empty(slots, dtype=_np.int64)
            self._bre = _np.empty(slots, dtype=_np.int64)
            self._bf = _np.empty(slots, dtype=_np.int64)
            if capacity:
                self._bl[0] = 0
                self._bre[0] = capacity
                self._bf[0] = 0
                self._bn = 1
            self._prev = _np.arange(-1, capacity, dtype=_np.int64)
            self._nxt = _np.arange(1, capacity + 2, dtype=_np.int64)
            self._ranks = None
        else:
            self._reset_lists(capacity)
        self._free_head = -1
        self._last_tracked = 0
        self._allow_negative = allow_negative
        self._base_total = 0
        self._n_adds = 0
        self._n_removes = 0
        self._bind_obs(obs)

    def _bind_obs(self, obs) -> None:
        """Resolve the obs knob and preallocate this profile's slots.

        Grow events are the only counter the core increments itself —
        ingest totals are already maintained exactly in
        ``_n_adds``/``_n_removes``, so snapshot-time gauges read them
        for free instead of taxing the fused loop with a second count.
        """
        from repro.obs.registry import resolve_registry

        self._obs = resolve_registry(obs)
        self._obs_grows = self._obs.counter("engine.grow.events")

    @classmethod
    def from_frequencies(
        cls,
        frequencies: Sequence[int],
        *,
        allow_negative: bool = True,
        array_engine: bool = False,
    ) -> "FlatProfile":
        """Bulk-build a profile from an initial frequency array.

        One vectorized sort (``argsort`` + run-length encode at C
        speed), O(m log m).
        """
        if not hasattr(frequencies, "__len__"):
            frequencies = list(frequencies)
        freqs = _np.asarray(frequencies, dtype=_np.int64)
        if not allow_negative and freqs.size and int(freqs.min()) < 0:
            raise FrequencyUnderflowError(
                "negative initial frequency with allow_negative=False"
            )
        self = cls(0, allow_negative=allow_negative, array_engine=array_engine)
        self._install_freqs_np(freqs)
        self._base_total = int(freqs.sum())
        return self

    # ------------------------------------------------------------------
    # Updates (the O(1) hot path — integer loads/stores only)
    # ------------------------------------------------------------------

    def add(self, x: int) -> None:
        """Process an "add" event for object ``x``.  O(1) worst case."""
        m = self._m
        if not 0 <= x < m:
            raise CapacityError(f"object id {x} out of range [0, {m})")
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        bl = self._bl
        bre = self._bre
        bf = self._bf
        self._n_adds += 1
        i = ftot[x]
        b = ptrb[i]
        re = bre[b]
        f1 = bf[b] + 1
        r = self._prev[re]
        if i != r:
            # Swap x with the right-edge element; both hold frequency
            # f, so the sorted order of T is untouched.  i != r proves
            # the block is not a singleton (a singleton's only member
            # *is* its right edge), so the general case follows.
            y = ttof[r]
            ttof[r] = x
            ttof[i] = y
            ftot[x] = r
            ftot[y] = i
        elif bl[b] == r:
            # Singleton block: bump in place unless it must merge into
            # an adjacent f+1 block.
            if re != m:
                rb = ptrb[re]
                if bf[rb] == f1:
                    bl[b] = self._free_head
                    self._free_head = b
                    bl[rb] = r
                    ptrb[r] = rb
                    return
            bf[b] = f1
            return
        # General case: shrink x's old block from the right and attach
        # rank r to the f+1 block (extend it or mint a singleton).
        bre[b] = r
        if re != m:
            rb = ptrb[re]
            if bf[rb] == f1:
                bl[rb] = r
                ptrb[r] = rb
                return
        nb = self._free_head
        if nb >= 0:
            self._free_head = bl[nb]
            bl[nb] = r
            bre[nb] = re
            bf[nb] = f1
        else:
            nb = self._mint(r, re, f1)
        ptrb[r] = nb

    def remove(self, x: int) -> None:
        """Process a "remove" event for object ``x``.  O(1) worst case."""
        m = self._m
        if not 0 <= x < m:
            raise CapacityError(f"object id {x} out of range [0, {m})")
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        bl = self._bl
        bre = self._bre
        bf = self._bf
        i = ftot[x]
        b = ptrb[i]
        f1 = bf[b] - 1
        if f1 < 0 and not self._allow_negative:
            raise FrequencyUnderflowError(
                f"removing object {x} at frequency {f1 + 1} would go negative"
            )
        self._n_removes += 1
        l = bl[b]
        if i != l:
            y = ttof[l]
            ttof[l] = x
            ttof[i] = y
            ftot[x] = l
            ftot[y] = i
        elif bre[b] == self._nxt[l]:
            if l:
                lb = ptrb[self._prev[l]]
                if bf[lb] == f1:
                    bre[lb] = bre[b]
                    bl[b] = self._free_head
                    self._free_head = b
                    ptrb[l] = lb
                    return
            bf[b] = f1
            return
        l1 = self._nxt[l]
        bl[b] = l1
        if l:
            lb = ptrb[self._prev[l]]
            if bf[lb] == f1:
                bre[lb] = l1
                ptrb[l] = lb
                return
        nb = self._free_head
        if nb >= 0:
            self._free_head = bl[nb]
            bl[nb] = l
            bre[nb] = l1
            bf[nb] = f1
        else:
            nb = self._mint(l, l1, f1)
        ptrb[l] = nb

    def _mint(self, l: int, re: int, f: int) -> int:
        """Mint a fresh block slot ``[l, re)`` at frequency ``f``.

        Only reached with an empty free list, so minted slots never
        exceed the live-block bound ``m``.  List engine: three appends.
        Array engine: amortized-doubling growth of the slot buffers.
        Callers holding
        hot-loop locals for ``_bl``/``_bre``/``_bf`` must reload them
        after a mint (growth may reallocate the arrays).
        """
        if not self._array:
            bl = self._bl
            nb = len(bl)
            bl.append(l)
            self._bre.append(re)
            self._bf.append(f)
            return nb
        nb = self._bn
        if nb == len(self._bl):
            self._grow_block_slots(nb + 1)
        self._bl[nb] = l
        self._bre[nb] = re
        self._bf[nb] = f
        self._bn = nb + 1
        return nb

    def _ensure_block_slots(self, need: int) -> None:
        if len(self._bl) < need:
            self._grow_block_slots(need)

    def _grow_block_slots(self, need: int) -> None:
        """Double the array-engine slot buffers until ``need`` fit."""
        cap = max(8, len(self._bl))
        while cap < need:
            cap *= 2
        self._obs_grows.inc()
        bn = self._bn
        for name in ("_bl", "_bre", "_bf"):
            old = getattr(self, name)
            grown = _np.empty(cap, dtype=_np.int64)
            grown[:bn] = old[:bn]
            setattr(self, name, grown)

    def update(self, x: int, is_add: bool) -> None:
        """Apply one log-stream tuple ``(x, c)``."""
        if is_add:
            self.add(x)
        else:
            self.remove(x)

    def add_count(self, x: int, count: int) -> None:
        """Apply ``count`` adds to ``x`` as one climb."""
        if count < 0:
            raise CapacityError(f"count must be >= 0, got {count}")
        if count:
            self._check_ids((x,))
            self._bulk_add({x: count})

    def remove_count(self, x: int, count: int) -> None:
        """Apply ``count`` removes to ``x``.  Mirror of :meth:`add_count`."""
        if count < 0:
            raise CapacityError(f"count must be >= 0, got {count}")
        if count:
            self._check_ids((x,))
            if not self._allow_negative:
                f = self._bf[self._ptrb[self._ftot[x]]]
                if count > f:
                    raise FrequencyUnderflowError(
                        f"removing object {x} at frequency {f} "
                        f"{count} times would go negative"
                    )
            self._bulk_remove({x: count})

    def consume(self, events: Iterable[tuple[int, bool]]) -> int:
        """Apply ``(object, is_add)`` tuples in order; return count."""
        add = self.add
        remove = self.remove
        n = 0
        for x, is_add in events:
            if is_add:
                add(x)
            else:
                remove(x)
            n += 1
        return n

    # ------------------------------------------------------------------
    # Fused stream consumption (the flat engine's reason to exist)
    # ------------------------------------------------------------------

    def consume_arrays(self, ids, adds) -> int:
        """Apply parallel arrays of object ids and add flags.

        The whole event loop runs inside this method with every lookup
        hoisted to a local — zero per-event method dispatch, zero
        attribute loads.  Accepts numpy arrays (converted once) or
        plain sequences; same no-rollback contract as :meth:`consume`.
        """
        return self._consume_fused(ids, adds, -1)

    def track_statistic(self, ids, adds, rank: int) -> int:
        """Apply every event while keeping ``T[rank]`` current; return
        the final tracked frequency.

        The ±1 update changes the sorted array ``T`` at exactly one
        rank per event (the touched block's right edge on an add, left
        edge on a remove), so upkeep of any fixed-rank statistic —
        mode (``rank = m-1``), median (``rank = (m-1)//2``), minimum
        (``rank = 0``), any quantile — is at most one compare per
        event inside the fused loop (and free for the mode, whose
        compare folds into branches the update takes anyway).  This is
        the flat engine's counterpart of the paper's
        update-then-query workload (figures 3-6).
        """
        m = self._m
        if not 0 <= rank < m:
            raise CapacityError(f"rank {rank} out of range [0, {m})")
        self._consume_fused(ids, adds, rank)
        # The loop maintained the statistic event by event
        # (self._last_tracked); re-read from the structure so the
        # answer is authoritative even on the strict-mode fallback.
        return int(self._bf[self._ptrb[rank]])

    def _consume_fused(self, ids, adds, tr: int) -> int:
        """Shared fused-loop driver; ``tr`` is the tracked rank (-1:
        none — which still takes the mode-specialized loop, whose
        tracking is free)."""
        id_list = (
            ids
            if type(ids) is list
            else ids.tolist() if hasattr(ids, "tolist") else list(ids)
        )
        add_list = (
            adds
            if type(adds) is list
            else adds.tolist() if hasattr(adds, "tolist") else list(adds)
        )
        if len(id_list) != len(add_list):
            raise CapacityError(
                f"ids ({len(id_list)}) and adds ({len(add_list)}) differ"
            )
        if id_list:
            # The fused loop carries no per-event bound check.  Ids
            # that are too large fault naturally (list indexing raises
            # IndexError, mapped to CapacityError below, with prior
            # events applied — consume()'s event-at-a-time contract),
            # but a *negative* id would silently wrap around in list
            # indexing and corrupt the structure, so the floor is
            # validated up front in one C-speed pass (on the ndarray
            # when the caller handed one over — cheaper still).
            if isinstance(ids, _np.ndarray):
                lo = int(ids.min())
            else:
                lo = min(id_list)
            if lo < 0:
                raise CapacityError(
                    f"object id {lo} out of range [0, {self._m})"
                )
        if not self._allow_negative:
            # Strict profiles need the per-remove underflow guard; keep
            # the fused loops branch-free and take the guarded methods.
            n = 0
            add = self.add
            remove = self.remove
            for x, is_add in zip(id_list, add_list):
                if is_add:
                    add(x)
                else:
                    remove(x)
                n += 1
            return n
        try:
            if self._array:
                self._run_fused_windowed(id_list, add_list, tr)
            elif tr < 0 or tr == self._m - 1:
                self._run_fused_top(id_list, add_list)
            else:
                self._run_fused(id_list, add_list, tr)
        except IndexError:
            # An id >= m faulted on the ftot lookup, before any of that
            # event's mutations (the structure stays sound; the free
            # list and prior events were persisted by the loop's
            # finally).  Settle the counters for the applied prefix,
            # then surface the usual error.
            applied = next(
                idx for idx, x in enumerate(id_list) if x >= self._m
            )
            n_add = add_list[:applied].count(True)
            self._n_adds += n_add
            self._n_removes += applied - n_add
            raise CapacityError(
                f"object id {id_list[applied]} out of range "
                f"[0, {self._m})"
            ) from None
        # Event counters settle once per batch (C-speed count), not
        # once per event.
        n_add = add_list.count(True)
        self._n_adds += n_add
        self._n_removes += len(add_list) - n_add
        return len(id_list)

    def _run_fused_windowed(self, id_list, add_list, tr: int) -> None:
        """Array engine: run the canonical fused loops on temporary
        list mirrors, then write the result back into the numpy
        buffers.

        CPython's interpreter loop reads plain lists ~2-3x faster than
        it boxes numpy scalars, so the fused paths stay list-shaped and
        the array engine pays one ``tolist()``/slice-assign round-trip
        per *batch* — O(m + events) at C speed, amortized over any real
        stream slice, with exactly one copy of the update logic.  The
        write-back runs in a ``finally`` so a mid-stream fault (an id
        >= m) persists the applied prefix, matching the list engine's
        event-at-a-time contract.
        """
        arrays = (self._ftot, self._ttof, self._ptrb)
        rank_tables = (self._prev, self._nxt)
        bl_buf, bre_buf, bf_buf = self._bl, self._bre, self._bf
        bn = self._bn
        self._ftot = arrays[0].tolist()
        self._ttof = arrays[1].tolist()
        self._ptrb = arrays[2].tolist()
        self._prev = rank_tables[0].tolist()
        self._nxt = rank_tables[1].tolist()
        self._bl = bl_buf[:bn].tolist()
        self._bre = bre_buf[:bn].tolist()
        self._bf = bf_buf[:bn].tolist()
        self._array = False
        try:
            if tr < 0 or tr == self._m - 1:
                self._run_fused_top(id_list, add_list)
            else:
                self._run_fused(id_list, add_list, tr)
        finally:
            ftot_l, ttof_l, ptrb_l = self._ftot, self._ttof, self._ptrb
            bl_l, bre_l, bf_l = self._bl, self._bre, self._bf
            self._ftot, self._ttof, self._ptrb = arrays
            self._prev, self._nxt = rank_tables
            self._bl, self._bre, self._bf = bl_buf, bre_buf, bf_buf
            self._bn = bn
            self._array = True
            self._ftot[:] = ftot_l
            self._ttof[:] = ttof_l
            self._ptrb[:] = ptrb_l
            nb = len(bl_l)
            self._ensure_block_slots(nb)
            self._bl[:nb] = bl_l
            self._bre[:nb] = bre_l
            self._bf[:nb] = bf_l
            self._bn = nb

    def _run_fused(self, id_list, add_list, tr) -> None:
        """The fused hot loop for an arbitrary tracked rank ``tr``.

        Every lookup hoisted, integer ops only; upkeep of ``T[tr]`` is
        one compare against the single rank each event changes.
        Counters are NOT touched here — the caller settles them per
        batch.  Keep the update logic in lockstep with
        :meth:`_run_fused_top`; the equivalence suite runs both against
        the block-object engine.
        """
        m = self._m
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        bl = self._bl
        bre = self._bre
        bf = self._bf
        prev = self._prev
        nxt = self._nxt
        free_head = self._free_head
        stat_f = bf[ptrb[tr]] if m else 0
        try:
            for x, is_add in zip(id_list, add_list):
                i = ftot[x]
                b = ptrb[i]
                if is_add:
                    re = bre[b]
                    f1 = bf[b] + 1
                    r = prev[re]
                    if r == tr:
                        stat_f = f1
                    if i != r:
                        y = ttof[r]
                        ttof[r] = x
                        ttof[i] = y
                        ftot[x] = r
                        ftot[y] = i
                    elif bl[b] == r:
                        if re != m:
                            rb = ptrb[re]
                            if bf[rb] == f1:
                                bl[b] = free_head
                                free_head = b
                                bl[rb] = r
                                ptrb[r] = rb
                                continue
                        bf[b] = f1
                        continue
                    bre[b] = r
                    if re != m:
                        rb = ptrb[re]
                        if bf[rb] == f1:
                            bl[rb] = r
                            ptrb[r] = rb
                            continue
                    nb = free_head
                    if nb >= 0:
                        free_head = bl[nb]
                        bl[nb] = r
                        bre[nb] = re
                        bf[nb] = f1
                    else:
                        nb = len(bl)
                        bl.append(r)
                        bre.append(re)
                        bf.append(f1)
                    ptrb[r] = nb
                else:
                    l = bl[b]
                    f1 = bf[b] - 1
                    if l == tr:
                        stat_f = f1
                    if i != l:
                        y = ttof[l]
                        ttof[l] = x
                        ttof[i] = y
                        ftot[x] = l
                        ftot[y] = i
                    elif bre[b] == nxt[l]:
                        if l:
                            lb = ptrb[prev[l]]
                            if bf[lb] == f1:
                                bre[lb] = bre[b]
                                bl[b] = free_head
                                free_head = b
                                ptrb[l] = lb
                                continue
                        bf[b] = f1
                        continue
                    l1 = nxt[l]
                    bl[b] = l1
                    if l:
                        lb = ptrb[prev[l]]
                        if bf[lb] == f1:
                            bre[lb] = l1
                            ptrb[l] = lb
                            continue
                    nb = free_head
                    if nb >= 0:
                        free_head = bl[nb]
                        bl[nb] = l
                        bre[nb] = l1
                        bf[nb] = f1
                    else:
                        nb = len(bl)
                        bl.append(l)
                        bre.append(l1)
                        bf.append(f1)
                    ptrb[l] = nb
        finally:
            # An IndexError faults at the very top of an event, before
            # any of its mutations — persisting here keeps the free
            # list and tracked statistic consistent for the applied
            # prefix.
            self._free_head = free_head
            self._last_tracked = stat_f

    def _run_fused_top(self, id_list, add_list) -> None:
        """:meth:`_run_fused` specialized to tracking rank ``m-1``.

        Mode upkeep is the paper's canonical workload (figures 3-5),
        so it earns a dedicated loop: ``T[m-1]`` changes only when an
        add touches a block whose exclusive bound is ``m``, or a
        remove hits the singleton block sitting at the top — both are
        branches the update logic takes anyway (``re != m`` decides
        whether a right neighbour exists), so the mode stays current
        with ZERO additional per-event work.
        """
        m = self._m
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        bl = self._bl
        bre = self._bre
        bf = self._bf
        prev = self._prev
        nxt = self._nxt
        free_head = self._free_head
        top = m - 1
        stat_f = bf[ptrb[top]] if m else 0
        try:
            for x, is_add in zip(id_list, add_list):
                i = ftot[x]
                b = ptrb[i]
                if is_add:
                    re = bre[b]
                    f1 = bf[b] + 1
                    r = prev[re]
                    if i != r:
                        y = ttof[r]
                        ttof[r] = x
                        ttof[i] = y
                        ftot[x] = r
                        ftot[y] = i
                    elif bl[b] == r:
                        if re != m:
                            rb = ptrb[re]
                            if bf[rb] == f1:
                                bl[b] = free_head
                                free_head = b
                                bl[rb] = r
                                ptrb[r] = rb
                                continue
                        else:
                            stat_f = f1
                        bf[b] = f1
                        continue
                    bre[b] = r
                    if re != m:
                        rb = ptrb[re]
                        if bf[rb] == f1:
                            bl[rb] = r
                            ptrb[r] = rb
                            continue
                    else:
                        stat_f = f1
                    nb = free_head
                    if nb >= 0:
                        free_head = bl[nb]
                        bl[nb] = r
                        bre[nb] = re
                        bf[nb] = f1
                    else:
                        nb = len(bl)
                        bl.append(r)
                        bre.append(re)
                        bf.append(f1)
                    ptrb[r] = nb
                else:
                    l = bl[b]
                    f1 = bf[b] - 1
                    if i != l:
                        y = ttof[l]
                        ttof[l] = x
                        ttof[i] = y
                        ftot[x] = l
                        ftot[y] = i
                    elif bre[b] == nxt[l]:
                        # A remove changes T only at rank l; l == top
                        # means this singleton sits at the top rank.
                        if l == top:
                            stat_f = f1
                        if l:
                            lb = ptrb[prev[l]]
                            if bf[lb] == f1:
                                bre[lb] = bre[b]
                                bl[b] = free_head
                                free_head = b
                                ptrb[l] = lb
                                continue
                        bf[b] = f1
                        continue
                    l1 = nxt[l]
                    bl[b] = l1
                    if l:
                        lb = ptrb[prev[l]]
                        if bf[lb] == f1:
                            bre[lb] = l1
                            ptrb[l] = lb
                            continue
                    nb = free_head
                    if nb >= 0:
                        free_head = bl[nb]
                        bl[nb] = l
                        bre[nb] = l1
                        bf[nb] = f1
                    else:
                        nb = len(bl)
                        bl.append(l)
                        bre.append(l1)
                        bf.append(f1)
                    ptrb[l] = nb
        finally:
            self._free_head = free_head
            self._last_tracked = stat_f

    # ------------------------------------------------------------------
    # Batch ingestion (coalesced; semantics of SProfile.add_many/apply)
    # ------------------------------------------------------------------

    def add_many(self, xs: Iterable[int]) -> int:
        """Apply one add per element of ``xs``; return the event count.

        Batch semantics of :meth:`repro.core.profile.SProfile.add_many`:
        repeated keys coalesce into one climb, final frequencies match
        the per-event loop, tie order inside equal frequencies is
        unordered, and bad ids reject the batch before any mutation.
        Dense batches (naming >= half the universe) rebuild wholesale.

        The whole batch pipeline is vectorized: coalescing is one
        ``bincount`` (no per-event dict work at all) and the dense
        rebuild is one fancy-indexed add + ``argsort``.
        """
        if not hasattr(xs, "__len__"):
            xs = list(xs)
        if len(xs) == 0:
            return 0
        per_key = self._batch_counts(xs)
        if per_key is not None:
            n = len(xs)
            if int(_np.count_nonzero(per_key)) * 2 >= self._m:
                # Dense: one fancy-indexed add onto the materialized
                # frequency array, one argsort — no per-key Python
                # work at all.
                freqs = self._frequencies_np()
                freqs += per_key
                self._install_freqs_np(freqs)
                self._n_adds += n
                return n
            keys = _np.flatnonzero(per_key)
            return self._bulk_add(
                dict(zip(keys.tolist(), per_key[keys].tolist()))
            )
        counts = Counter(xs)
        if len(counts) * 2 >= self._m:
            n = sum(counts.values())
            self._apply_rebuild(counts)
            self._n_adds += n
            return n
        self._check_ids(counts)
        return self._bulk_add(counts)

    def remove_many(self, xs: Iterable[int]) -> int:
        """Apply one remove per element of ``xs``; mirror of
        :meth:`add_many` (all-or-nothing in strict mode)."""
        if not hasattr(xs, "__len__"):
            xs = list(xs)
        if len(xs) == 0:
            return 0
        per_key = self._batch_counts(xs)
        if per_key is not None:
            n = len(xs)
            if int(_np.count_nonzero(per_key)) * 2 >= self._m:
                freqs = self._frequencies_np()
                low = freqs - per_key
                if not self._allow_negative and int(low.min()) < 0:
                    bad = int(low.argmin())
                    raise FrequencyUnderflowError(
                        f"removing object {bad} at frequency "
                        f"{int(freqs[bad])} {int(per_key[bad])} times "
                        f"would go negative"
                    )
                self._install_freqs_np(low)
                self._n_removes += n
                return n
            keys = _np.flatnonzero(per_key)
            counts = dict(zip(keys.tolist(), per_key[keys].tolist()))
        else:
            counts = Counter(xs)
            if len(counts) * 2 >= self._m:
                n = sum(counts.values())
                self._apply_rebuild({x: -c for x, c in counts.items()})
                self._n_removes += n
                return n
            self._check_ids(counts)
        if not self._allow_negative:
            ptrb = self._ptrb
            ftot = self._ftot
            bf = self._bf
            for x, c in counts.items():
                f = bf[ptrb[ftot[x]]]
                if c > f:
                    raise FrequencyUnderflowError(
                        f"removing object {x} at frequency {f} "
                        f"{c} times would go negative"
                    )
        return self._bulk_remove(counts)

    def _check_ids(self, xs) -> None:
        """Reject the batch on its first id outside ``[0, m)``: the
        check every caller of the climb loops runs before them."""
        m = self._m
        for x in xs:
            if not 0 <= x < m:
                raise CapacityError(f"object id {x} out of range [0, {m})")

    def _batch_counts(self, xs):
        """Per-key occurrence counts of a materialized id batch.

        One ``bincount`` pass coalesces the batch and one min/max pass
        range-validates it (a bad id rejects the batch before any
        mutation).  Returns ``None`` when the batch is not a clean
        one-dimensional integer array — the caller then
        falls back to the dict pipeline, which surfaces type errors the
        same way the block-object engine does.
        """
        arr = _np.asarray(xs)
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            return None
        lo = int(arr.min())
        hi = int(arr.max())
        if lo < 0 or hi >= self._m:
            bad = lo if lo < 0 else hi
            raise CapacityError(
                f"object id {bad} out of range [0, {self._m})"
            )
        return _np.bincount(arr, minlength=self._m)

    def apply(self, deltas) -> int:
        """Apply a batch of ``(object, delta)`` pairs (or a mapping).

        Same contract as :meth:`repro.core.profile.SProfile.apply`:
        deltas per key are summed first, the net is applied as climbs
        (or one wholesale rebuild for dense batches), and bad ids or
        strict-mode net underflows reject the whole batch atomically.

        >>> p = FlatProfile(capacity=4)
        >>> p.apply([(0, +3), (1, +1), (0, -1)])
        3
        >>> p.frequencies()
        [2, 1, 0, 0]
        """
        # A dict is already a net map, and nothing below mutates it.
        net = deltas if isinstance(deltas, dict) else net_deltas(deltas)
        m = self._m
        adds: dict[int, int] = {}
        removes: dict[int, int] = {}
        for x, d in net.items():
            if not 0 <= x < m:
                raise CapacityError(f"object id {x} out of range [0, {m})")
            if d > 0:
                adds[x] = d
            elif d < 0:
                removes[x] = -d
        if (len(adds) + len(removes)) * 2 >= m and (adds or removes):
            n_add = sum(adds.values())
            n_rem = sum(removes.values())
            self._apply_rebuild({x: net[x] for x in net if net[x]})
            self._n_adds += n_add
            self._n_removes += n_rem
            return n_add + n_rem
        if removes and not self._allow_negative:
            ptrb = self._ptrb
            ftot = self._ftot
            bf = self._bf
            for x, c in removes.items():
                f = bf[ptrb[ftot[x]]]
                if c > f:
                    raise FrequencyUnderflowError(
                        f"removing object {x} at frequency {f} "
                        f"{c} times (net) would go negative"
                    )
        n = 0
        if adds:
            n += self._bulk_add(adds)
        if removes:
            n += self._bulk_remove(removes)
        return n

    def apply_arrays(self, keys, sums) -> int:
        """Apply an already-netted batch given as parallel arrays.

        The all-arrays twin of :meth:`apply` for the serving hot path:
        ``keys`` are *unique* integer ids and ``sums`` their net
        deltas (the output shape of
        :func:`repro.core.profile.net_arrays`).  Same contract —
        identical validation order, strict-mode underflow messages and
        return value — but range checks, underflow checks and the
        wholesale rebuild run vectorized, with no per-key dict.

        Rebuild-vs-climb is decided per batch: climbing costs
        O(#blocks crossed) *Python* per key while the rebuild is
        O(m log m) at C speed, so the crossover sits near ``m / 20``
        distinct keys (not :meth:`apply`'s ``m / 2``, which prices the
        dict pipeline both sides of its threshold pay).
        """
        keys = _np.asarray(keys)
        sums = _np.asarray(sums)
        m = self._m
        if keys.size:
            # Range-check before dropping zero-net keys: apply() does
            # too (a bad id rejects the batch even when its deltas
            # cancel).
            lo = int(keys.min())
            hi = int(keys.max())
            if lo < 0 or hi >= m:
                bad = lo if lo < 0 else hi
                raise CapacityError(
                    f"object id {bad} out of range [0, {m})"
                )
        live = sums != 0
        if not live.all():
            keys = keys[live]
            sums = sums[live]
        if not keys.size:
            return 0
        n_add = int(sums[sums > 0].sum())
        n_rem = -int(sums[sums < 0].sum())
        if keys.size * 20 >= m:
            freqs = self._frequencies_np()
            if not self._allow_negative:
                low = freqs[keys] + sums
                if int(low.min()) < 0:
                    i = int(low.argmin())
                    bad = int(keys[i])
                    raise FrequencyUnderflowError(
                        f"removing object {bad} at frequency "
                        f"{int(freqs[bad])} {int(-sums[i])} times "
                        f"(net) would go negative"
                    )
            freqs[keys] += sums
            self._install_freqs_np(freqs)
            self._n_adds += n_add
            self._n_removes += n_rem
            return n_add + n_rem
        adds: dict[int, int] = {}
        removes: dict[int, int] = {}
        for x, d in zip(keys.tolist(), sums.tolist()):
            if d > 0:
                adds[x] = d
            else:
                removes[x] = -d
        if removes and not self._allow_negative:
            ptrb = self._ptrb
            ftot = self._ftot
            bf = self._bf
            for x, c in removes.items():
                f = bf[ptrb[ftot[x]]]
                if c > f:
                    raise FrequencyUnderflowError(
                        f"removing object {x} at frequency {f} "
                        f"{c} times (net) would go negative"
                    )
        n = 0
        if adds:
            n += self._bulk_add(adds)
        if removes:
            n += self._bulk_remove(removes)
        return n

    def _apply_rebuild(self, net: Mapping[int, int]) -> None:
        """Wholesale path for batches naming much of the universe.

        O(m log m) with C-speed constants: update the materialized
        frequency array with one fancy-indexed add, ``argsort`` it,
        run-length encode the runs and refill the flat arrays with
        ``tolist()``.  Strict-mode underflow is
        checked on the net result before any mutation.
        """
        self._check_ids(net)
        freqs = self._frequencies_np()
        if net:
            keys = _np.fromiter(net.keys(), dtype=_np.int64, count=len(net))
            vals = _np.fromiter(
                net.values(), dtype=_np.int64, count=len(net)
            )
            if not self._allow_negative:
                low = freqs[keys] + vals
                if low.size and int(low.min()) < 0:
                    bad = int(keys[int(low.argmin())])
                    raise FrequencyUnderflowError(
                        f"removing object {bad} at frequency "
                        f"{int(freqs[bad])} {-net[bad]} times (net) "
                        f"would go negative"
                    )
            freqs[keys] += vals
        self._install_freqs_np(freqs)

    def _bulk_add(self, counts: Mapping[int, int]) -> int:
        """Add ``counts[x]`` (> 0) per key as one climb each.

        Flat transliteration of
        :meth:`repro.core.profile.SProfile._bulk_add`: detach at the
        right edge, leapfrog whole blocks (one edge swap per block,
        regardless of block size), land by joining the target block or
        minting a singleton.  O(#blocks crossed + 1) per key.  Ids are
        not checked here: every caller has range-checked them.
        """
        m = self._m
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        bl = self._bl
        bre = self._bre
        bf = self._bf
        free_head = self._free_head
        n = 0
        for x, c in counts.items():
            n += c
            i = ftot[x]
            b = ptrb[i]
            f = bf[b]
            target = f + c
            re = bre[b]
            if re - bl[b] == 1:
                # x already alone: its block travels (or retunes) with it.
                carry = b
            else:
                carry = -1
                r = re - 1
                if i != r:
                    y = ttof[r]
                    ttof[r] = x
                    ttof[i] = y
                    ftot[x] = r
                    ftot[y] = i
                bre[b] = r
                i = r
            while True:
                nxt = i + 1
                if nxt < m:
                    rb = ptrb[nxt]
                    rf = bf[rb]
                    if rf <= target:
                        if rf == target:
                            # Land: join the target block's left edge.
                            if carry >= 0:
                                bl[carry] = free_head
                                free_head = carry
                            bl[rb] = i
                            ptrb[i] = rb
                            break
                        # Leapfrog the whole block: swap x with its
                        # right-edge element and shift the block left.
                        R = bre[rb] - 1
                        z = ttof[R]
                        ttof[i] = z
                        ttof[R] = x
                        ftot[z] = i
                        ftot[x] = R
                        bl[rb] = i
                        bre[rb] = R
                        ptrb[i] = rb
                        i = R
                        continue
                # Land in a gap (or past the topmost block).
                if carry >= 0:
                    bl[carry] = i
                    bre[carry] = i + 1
                    bf[carry] = target
                else:
                    carry = free_head
                    if carry >= 0:
                        free_head = bl[carry]
                        bl[carry] = i
                        bre[carry] = i + 1
                        bf[carry] = target
                    else:
                        carry = self._mint(i, i + 1, target)
                        # A mint may regrow the array-engine slot
                        # buffers; reload the locals (identity in the
                        # list engine).
                        bl = self._bl
                        bre = self._bre
                        bf = self._bf
                ptrb[i] = carry
                break
        self._free_head = free_head
        self._n_adds += n
        return n

    def _bulk_remove(self, counts: Mapping[int, int]) -> int:
        """Remove ``counts[x]`` (> 0) per key; mirror of
        :meth:`_bulk_add` descending at the left edge."""
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        bl = self._bl
        bre = self._bre
        bf = self._bf
        free_head = self._free_head
        strict = not self._allow_negative
        n = 0
        for x, c in counts.items():
            i = ftot[x]
            b = ptrb[i]
            f = bf[b]
            if strict and c > f:
                self._free_head = free_head
                self._n_removes += n
                raise FrequencyUnderflowError(
                    f"removing object {x} at frequency {f} "
                    f"{c} times would go negative"
                )
            n += c
            target = f - c
            l = bl[b]
            if bre[b] - l == 1:
                carry = b
            else:
                carry = -1
                if i != l:
                    y = ttof[l]
                    ttof[l] = x
                    ttof[i] = y
                    ftot[x] = l
                    ftot[y] = i
                bl[b] = l + 1
                i = l
            while True:
                prv = i - 1
                if prv >= 0:
                    lb = ptrb[prv]
                    lf = bf[lb]
                    if lf >= target:
                        if lf == target:
                            if carry >= 0:
                                bl[carry] = free_head
                                free_head = carry
                            bre[lb] = i + 1
                            ptrb[i] = lb
                            break
                        L = bl[lb]
                        z = ttof[L]
                        ttof[i] = z
                        ttof[L] = x
                        ftot[z] = i
                        ftot[x] = L
                        bl[lb] = L + 1
                        bre[lb] = i + 1
                        ptrb[i] = lb
                        i = L
                        continue
                if carry >= 0:
                    bl[carry] = i
                    bre[carry] = i + 1
                    bf[carry] = target
                else:
                    carry = free_head
                    if carry >= 0:
                        free_head = bl[carry]
                        bl[carry] = i
                        bre[carry] = i + 1
                        bf[carry] = target
                    else:
                        carry = self._mint(i, i + 1, target)
                        bl = self._bl
                        bre = self._bre
                        bf = self._bf
                ptrb[i] = carry
                break
        self._free_head = free_head
        self._n_removes += n
        return n

    # ------------------------------------------------------------------
    # Growth (used when hosting a growing universe)
    # ------------------------------------------------------------------

    def grow(self, extra: int) -> None:
        """Extend capacity by ``extra`` fresh objects at frequency 0.

        O(m + extra): splice the new zero-frequency ranks where
        frequency 0 belongs in the ascending order (valid in strict and
        negative modes alike).
        """
        if extra <= 0:
            raise CapacityError(f"extra must be positive, got {extra}")
        old_m = self._m
        new_m = old_m + extra

        splice = old_m
        for block in self._blocks.iter_blocks():
            if block.f >= 0:
                splice = block.l
                break

        old_ttof = (
            self._ttof.tolist() if self._array else self._ttof
        )
        # Take every object id from the new capacity's shared range
        # (held here until _install_runs adopts it), so ttof holds the
        # same int objects as ftot and the rank tables.
        ranks = _rank_range(new_m)
        ids = ranks.prev[1:]
        new_ttof = list(map(ids.__getitem__, old_ttof[:splice]))
        new_ttof += ids[old_m:]
        new_ttof += map(ids.__getitem__, old_ttof[splice:])
        runs: list[tuple[int, int, int]] = []
        zero_emitted = False
        for block in self._blocks.iter_blocks():
            l, r, f = block.as_tuple()
            if f < 0:
                runs.append((l, r, f))
            elif f == 0:
                runs.append((l, r + extra, 0))
                zero_emitted = True
            else:
                if not zero_emitted:
                    runs.append((splice, splice + extra - 1, 0))
                    zero_emitted = True
                runs.append((l + extra, r + extra, f))
        if not zero_emitted:
            runs.append((splice, splice + extra - 1, 0))
        self._install_runs(new_ttof, runs)
        self._obs_grows.inc()

    # ------------------------------------------------------------------
    # Maintained and derived statistics
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """``m`` — number of tracked object ids."""
        return self._m

    @property
    def total(self) -> int:
        """Sum of all frequencies: the current length of array ``A``."""
        return self._base_total + self._n_adds - self._n_removes

    @property
    def active_count(self) -> int:
        """Number of objects with non-zero frequency.  O(#blocks)."""
        zero = self._blocks.block_for_frequency(0)
        if zero is None:
            return self._m
        return self._m - (zero.r - zero.l + 1)

    @property
    def n_adds(self) -> int:
        return self._n_adds

    @property
    def n_removes(self) -> int:
        return self._n_removes

    @property
    def n_events(self) -> int:
        """Total log-stream tuples processed."""
        return self._n_adds + self._n_removes

    @property
    def block_count(self) -> int:
        """Current number of blocks (distinct frequencies).  O(#blocks):
        the count is derived from the run walk, never maintained on the
        hot path."""
        m = self._m
        ptrb = self._ptrb
        bre = self._bre
        n = 0
        rank = 0
        while rank < m:
            n += 1
            rank = bre[ptrb[rank]]
        return n

    @property
    def block_slots(self) -> int:
        """Block array slots minted so far (live + free)."""
        return self._bn if self._array else len(self._bl)

    @property
    def array_engine(self) -> bool:
        """True when state lives in numpy buffers (the array engine)."""
        return self._array

    @property
    def free_slots(self) -> int:
        """Recycled block ids awaiting reuse.  O(free list length)."""
        n = 0
        head = self._free_head
        bl = self._bl
        while head >= 0:
            n += 1
            head = int(bl[head])
        return n

    @property
    def last_tracked(self) -> int:
        """Final value the last fused loop maintained (0 before any
        fused consumption)."""
        return self._last_tracked

    @property
    def allow_negative(self) -> bool:
        return self._allow_negative

    @property
    def mean_frequency(self) -> float:
        """Mean of the frequency array.  O(1)."""
        if self._m == 0:
            return 0.0
        return self.total / self._m

    @property
    def frequency_variance(self) -> float:
        """Population variance of frequencies.  O(#blocks)."""
        if self._m == 0:
            return 0.0
        sum_sq = 0
        for block in self._blocks.iter_blocks():
            sum_sq += block.f * block.f * (block.r - block.l + 1)
        mean = self.total / self._m
        variance = sum_sq / self._m - mean * mean
        return max(variance, 0.0)

    @property
    def _blocks(self) -> _FlatBlockReader:
        # The query mixin's reader; see _FlatBlockReader for why it
        # is built per access.
        return _FlatBlockReader(self)

    @property
    def blocks(self) -> _FlatBlockReader:
        """Read access to the block structure (BlockSet-shaped view)."""
        return _FlatBlockReader(self)

    # O(1) overrides of the mixin's generic lookups — pure array reads,
    # no Block materialization.

    def frequency(self, obj: int) -> int:
        """Net occurrence count of ``obj``.  O(1)."""
        if not 0 <= obj < self._m:
            raise CapacityError(
                f"object id {obj} out of range [0, {self._m})"
            )
        return int(self._bf[self._ptrb[self._ftot[obj]]])

    def max_frequency(self) -> int:
        """The largest frequency (the mode's frequency).  O(1)."""
        if self._m == 0:
            raise EmptyProfileError("profile tracks zero objects")
        return int(self._bf[self._ptrb[self._m - 1]])

    def min_frequency(self) -> int:
        """The smallest frequency.  O(1)."""
        if self._m == 0:
            raise EmptyProfileError("profile tracks zero objects")
        return int(self._bf[self._ptrb[0]])

    def median_frequency(self) -> int:
        """Lower median of the frequency array.  O(1)."""
        m = self._m
        if m == 0:
            raise EmptyProfileError("profile tracks zero objects")
        return int(self._bf[self._ptrb[(m - 1) // 2]])

    def frequency_at_rank(self, rank: int) -> int:
        """``T[rank]`` — the frequency at ascending sorted position."""
        if not 0 <= rank < self._m:
            raise IndexError(f"rank {rank} out of range [0, {self._m})")
        return int(self._bf[self._ptrb[rank]])

    # ------------------------------------------------------------------
    # Structure management
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Reset every frequency to zero (keeps capacity and settings)."""
        m = self._m
        self._free_head = -1
        self._last_tracked = 0
        self._base_total = 0
        self._n_adds = 0
        self._n_removes = 0
        if self._array:
            # In place: the buffers keep their (possibly grown) size.
            self._ftot[:] = _np.arange(m, dtype=_np.int64)
            self._ttof[:] = self._ftot
            if m:
                self._ptrb[:] = 0
                self._bl[0] = 0
                self._bre[0] = m
                self._bf[0] = 0
            self._bn = 1 if m else 0
            return
        self._reset_lists(m)

    def _reset_lists(self, m: int) -> None:
        """Install the list engine's all-zero structure for capacity
        ``m``: identity permutations, one block ``[0, m)`` at frequency
        0, and rank tables that share their ints with the permutations.
        """
        self._install_rank_range(m)
        self._ftot = self._prev[1:]
        self._ttof = self._prev[1:]
        if m:
            self._ptrb = [0] * m
            self._bl = [0]
            self._bre = [m]
            self._bf = [0]
        else:
            self._ptrb = []
            self._bl = []
            self._bre = []
            self._bf = []

    def copy(self) -> "FlatProfile":
        """Independent deep copy of the profiler.

        An array-engine copy copies each buffer (``np.copy`` — O(buffers)
        allocations at C speed).
        """
        clone = FlatProfile(0, allow_negative=self._allow_negative)
        clone._m = self._m
        if self._array:
            clone._array = True
            clone._ftot = self._ftot.copy()
            clone._ttof = self._ttof.copy()
            clone._ptrb = self._ptrb.copy()
            clone._bl = self._bl.copy()
            clone._bre = self._bre.copy()
            clone._bf = self._bf.copy()
            clone._bn = self._bn
        else:
            clone._ftot = list(self._ftot)
            clone._ttof = list(self._ttof)
            clone._ptrb = list(self._ptrb)
            clone._bl = list(self._bl)
            clone._bre = list(self._bre)
            clone._bf = list(self._bf)
        # The rank tables are immutable constants of m — share them.
        clone._prev = self._prev
        clone._nxt = self._nxt
        clone._ranks = self._ranks
        clone._free_head = self._free_head
        clone._last_tracked = self._last_tracked
        clone._base_total = self._base_total
        clone._n_adds = self._n_adds
        clone._n_removes = self._n_removes
        return clone

    def snapshot(self):
        """Frozen point-in-time copy answering the same queries."""
        from repro.core.snapshot import ProfileSnapshot

        return ProfileSnapshot.of(self)

    def frequencies(self) -> list[int]:
        """Materialize the frequency array ``F`` (O(m); for inspection)."""
        if self._array:
            return self._frequencies_np().tolist()
        out = [0] * self._m
        ttof = self._ttof
        for block in self._blocks.iter_blocks():
            f = block.f
            for rank in range(block.l, block.r + 1):
                out[ttof[rank]] = f
        return out

    def _frequencies_np(self):
        """The frequency array as an ``int64`` ndarray (O(m), C speed)."""
        m = self._m
        if self._array:
            # Two fancy-index passes, no Python-level run walk: the
            # frequency at rank k is bf[ptrb[k]], scattered back to
            # object order through ttof.
            freqs = _np.empty(m, dtype=_np.int64)
            freqs[self._ttof] = self._bf[self._ptrb]
            return freqs
        runs = self._blocks.as_tuples()
        if not runs:
            return _np.zeros(0, dtype=_np.int64)
        sizes = _np.asarray([r - l + 1 for l, r, _ in runs], dtype=_np.int64)
        per_rank = _np.repeat(
            _np.asarray([f for _, _, f in runs], dtype=_np.int64), sizes
        )
        freqs = _np.empty(m, dtype=_np.int64)
        freqs[_np.asarray(self._ttof, dtype=_np.int64)] = per_rank
        return freqs

    def _install_freqs_np(self, freqs) -> None:
        """Rebuild the whole structure from an ndarray of frequencies.

        One stable ``argsort`` (deterministic tie order) plus run-length
        encoding.  List engine: every array refills through
        ``tolist()`` at C speed.  Array engine: the results are written
        **in place** into the existing buffers; capacity changes
        reallocate them.
        """
        m = int(freqs.shape[0])
        if self._array:
            self._install_freqs_np_array(freqs, m)
            return
        self._m = m
        if m == 0:
            self._ftot = []
            self._ttof = []
            self._ptrb = []
            self._bl = []
            self._bre = []
            self._bf = []
            self._install_rank_range(0)
            self._free_head = -1
            return
        ttof = _np.argsort(freqs, kind="stable")
        sf = freqs[ttof]
        starts = _np.flatnonzero(sf[1:] != sf[:-1]) + 1
        starts = _np.concatenate((_np.zeros(1, dtype=starts.dtype), starts))
        # Exclusive right bounds: each run ends where the next begins.
        ends = _np.concatenate((starts[1:], [m]))
        ftot = _np.empty(m, dtype=_np.int64)
        ftot[ttof] = _np.arange(m, dtype=_np.int64)
        self._ttof = ttof.tolist()
        self._ftot = ftot.tolist()
        self._ptrb = _np.repeat(
            _np.arange(len(starts)), ends - starts
        ).tolist()
        self._bl = starts.tolist()
        self._bre = ends.tolist()
        self._bf = sf[starts].tolist()
        self._sync_rank_tables(m)
        self._free_head = -1

    def _reallocate(self, m: int) -> None:
        """Size the array-engine buffers for a new capacity ``m``
        (contents are installed by the caller)."""
        self._ftot = _np.empty(m, dtype=_np.int64)
        self._ttof = _np.empty(m, dtype=_np.int64)
        self._ptrb = _np.empty(m, dtype=_np.int64)
        slots = max(1, min(8, m)) if m else 1
        self._bl = _np.empty(slots, dtype=_np.int64)
        self._bre = _np.empty(slots, dtype=_np.int64)
        self._bf = _np.empty(slots, dtype=_np.int64)
        self._bn = 0
        self._m = m

    def _install_freqs_np_array(self, freqs, m: int) -> None:
        """Array-engine wholesale rebuild: in-place buffer writes."""
        if m != self._m:
            self._reallocate(m)
        self._sync_rank_tables(m)
        if m == 0:
            self._bn = 0
            self._free_head = -1
            return
        ttof = _np.argsort(freqs, kind="stable")
        sf = freqs[ttof]
        starts = _np.flatnonzero(sf[1:] != sf[:-1]) + 1
        starts = _np.concatenate((_np.zeros(1, dtype=starts.dtype), starts))
        ends = _np.concatenate((starts[1:], [m]))
        self._ttof[:] = ttof
        self._ftot[ttof] = _np.arange(m, dtype=_np.int64)
        nb = int(starts.shape[0])
        self._ptrb[:] = _np.repeat(
            _np.arange(nb, dtype=_np.int64), ends - starts
        )
        self._ensure_block_slots(nb)
        self._bl[:nb] = starts
        self._bre[:nb] = ends
        self._bf[:nb] = sf[starts]
        self._bn = nb
        self._free_head = -1

    def _sync_rank_tables(self, m: int) -> None:
        """(Re)build the prev/nxt rank tables — only when ``m`` moved.

        The tables are pure functions of the capacity; skipping the
        rebuild keeps repeated wholesale rebuilds (the dense batch
        path) from paying O(m) for nothing.
        """
        if len(self._prev) != m + 1:
            if self._array:
                self._prev = _np.arange(-1, m, dtype=_np.int64)
                self._nxt = _np.arange(1, m + 2, dtype=_np.int64)
            else:
                self._install_rank_range(m)

    def _install_rank_range(self, m: int) -> None:
        """List engine: adopt the rank range shared by every live
        profile of capacity ``m``.  Holding it in ``_ranks`` is what
        keeps it in the weak map."""
        ranks = _rank_range(m)
        self._ranks = ranks
        self._prev = ranks.prev
        self._nxt = ranks.nxt

    def _install_runs(
        self, ttof: list[int], runs: list[tuple[int, int, int]]
    ) -> None:
        """Replace the permutation and block structure wholesale.

        ``runs`` are inclusive ``(l, r, f)`` triples (the paper's and
        the checkpoint schema's notation) and must partition
        ``[0, len(ttof))`` with strictly increasing frequencies
        (verified cheaply by coverage count; checkpoint restore
        re-audits in full).
        """
        m = len(ttof)
        # ftot takes its ints from the shared range (held here until
        # installed), so the tables and every other profile of this
        # capacity share them.
        ranks = _rank_range(m)
        prev = ranks.prev
        ftot = [0] * m
        for obj, rank in zip(ttof, islice(prev, 1, None)):
            ftot[obj] = rank
        ptrb = [0] * m
        bl: list[int] = []
        bre: list[int] = []
        bf: list[int] = []
        covered = 0
        for l, r, f in runs:
            if not (0 <= l <= r < m):
                raise InvariantViolationError(
                    f"run ({l}, {r}, {f}) out of bounds for capacity {m}"
                )
            bid = len(bl)
            bl.append(l)
            bre.append(r + 1)
            bf.append(f)
            ptrb[l : r + 1] = [bid] * (r + 1 - l)
            covered += r + 1 - l
        if covered != m:
            raise InvariantViolationError(
                f"runs cover {covered} ranks, expected {m}"
            )
        if self._array:
            if m != self._m:
                self._reallocate(m)
            self._ttof[:] = ttof
            self._ftot[:] = ftot
            self._ptrb[:] = ptrb
            nb = len(bl)
            self._ensure_block_slots(max(nb, 1))
            self._bl[:nb] = bl
            self._bre[:nb] = bre
            self._bf[:nb] = bf
            self._bn = nb
            self._sync_rank_tables(m)
            self._free_head = -1
            return
        self._m = m
        self._ttof = ttof
        self._ftot = ftot
        self._ptrb = ptrb
        self._bl = bl
        self._bre = bre
        self._bf = bf
        self._install_rank_range(m)
        self._free_head = -1

    def audit(self) -> None:
        """Verify the flat structure's invariants (see
        :meth:`_FlatBlockReader.audit`)."""
        self._blocks.audit()

    def __repr__(self) -> str:
        return (
            f"FlatProfile(capacity={self._m}, total={self.total}, "
            f"blocks={self.block_count}, events={self.n_events})"
        )

