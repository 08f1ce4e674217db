"""S-Profile: O(1)-per-update profiling of a dynamic array (Algorithm 1).

The profiler tracks ``m`` objects with dense ids ``0 .. m-1``.  Every
``add(x)`` / ``remove(x)`` changes the frequency of exactly one object by
exactly ±1 — the structure of log streams the paper exploits.  State:

- ``FtoT`` (here ``_ftot``): object id -> rank in the sorted array ``T``,
- ``TtoF`` (here ``_ttof``): rank -> object id,
- the block set with ``PtrB`` (rank -> block), see
  :mod:`repro.core.blockset`.

``T`` itself is never stored: ``T[rank] == PtrB[rank].f`` (paper eq. (1)).

An ``add`` swaps the object with the one at the *right edge* of its
block (both share the same frequency, so order is preserved), shrinks the
block by one and attaches the freed rank to the ``f+1`` block on its
right — extending it if it exists, creating a singleton block otherwise.
A ``remove`` mirrors the dance at the *left edge*.  Both touch a constant
number of pointers: O(1) worst case, no amortization.

Implementation notes (they matter for the paper's speed claims):

- ``add``/``remove`` inline the block create/drop bookkeeping and
  recycle emptied blocks through a free list without any function call;
  this mirrors the paper's C++ where everything inlines.  See
  ``benchmarks/bench_ablation_pool.py`` for the measured effect.
- Derived statistics (variance, active count) are computed on demand
  from the block walk in O(#blocks) instead of being maintained per
  event; the hot path carries exactly one counter increment.
- Bulk ingestion (:meth:`SProfile.add_many` / :meth:`SProfile.remove_many`
  / :meth:`SProfile.apply`) coalesces repeated keys and hoists every
  attribute lookup out of the per-event loop.  A key hit ``c`` times
  climbs the block structure in O(#blocks crossed) instead of O(c):
  because all elements of a block share one frequency, the object
  leapfrogs an entire block with a single edge swap.  See
  ``benchmarks/bench_batch_vs_loop.py`` for the measured effect.

Frequencies may go negative (the paper allows it; section 2.2 notes the
minimum frequency "maybe a negative number").  Construct with
``allow_negative=False`` to instead raise
:class:`~repro.errors.FrequencyUnderflowError` when a remove would
underflow zero.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as _np

from repro.core.block import Block, BlockPool
from repro.core.blockset import BlockSet
from repro.core.queries import ProfileQueryMixin
from repro.errors import CapacityError, FrequencyUnderflowError

__all__ = [
    "ArrayBatch",
    "NETTING_CROSSOVER",
    "SProfile",
    "net_arrays",
    "net_batch",
    "net_deltas",
    "net_events",
]


def net_deltas(deltas) -> dict:
    """Coalesce ``(key, delta)`` pairs (or a mapping) into a net map.

    The shared batch-normalization step of every ``apply``
    implementation (flat, exact, baseline), so their semantics
    cannot drift: mappings are taken item-wise, pair streams are
    summed per key.
    """
    items = deltas.items() if hasattr(deltas, "items") else deltas
    net: dict = {}
    for x, d in items:
        net[x] = net.get(x, 0) + d
    return net


#: Array batches shorter than this many events net with a dict, longer
#: ones with NumPy (:func:`net_batch`).  ``benchmarks/
#: bench_flush_netting.py`` times both methods per call: where netting
#: is all that differs (the router's ``partition_batch``) they break
#: even at 128-256 events on m = 4,096 and 32,768, and at 32 events
#: (a replica's flush) the dict halves the facade's cost, about 120 ->
#: 60 us on a 2-vCPU VM.
NETTING_CROSSOVER = 256


def _parallel(ids, deltas):
    """``ids`` and ``deltas`` as arrays of one shape, or raise."""
    ids = _np.asarray(ids)
    deltas = _np.asarray(deltas)
    if ids.shape != deltas.shape:
        raise CapacityError(
            f"ids and deltas must be parallel arrays, got shapes "
            f"{ids.shape} and {deltas.shape}"
        )
    return ids, deltas


def net_arrays(ids, deltas):
    """Net two parallel integer arrays into ``(keys, sums)`` arrays.

    The vectorized :func:`net_deltas`: one ``unique`` + scatter-add
    pair replaces the per-event dict loop.  ``keys`` is the *sorted
    unique* int64 ids and ``sums`` their net deltas (zero-net keys
    included), both NumPy arrays — no per-key Python objects at all.
    Sorted key order is immaterial for dense integer ids: additive
    netting is order-free, and nothing registers keys positionally.
    Its fixed cost (a sort and a scatter) loses to the dict loop on
    small batches; :func:`net_batch` picks between them.
    """
    ids, deltas = _parallel(ids, deltas)
    keys, inverse = _np.unique(ids, return_inverse=True)
    sums = _np.zeros(len(keys), dtype=_np.int64)
    _np.add.at(sums, inverse, deltas)
    return keys, sums


def net_batch(ids, deltas):
    """Net one array batch by the method that is cheaper at its length.

    Below :data:`NETTING_CROSSOVER` events, a dict over ``tolist()``
    (:func:`net_deltas`): a few hundred boxed ints cost less than
    NumPy's per-call overhead.  From it on, :func:`net_arrays`, whose
    cost barely grows with the batch.  Returns a net dict or sorted
    ``(keys, sums)`` arrays, zero-net keys kept either way (the core
    still range-checks them); :func:`net_events` counts both.
    """
    ids, deltas = _parallel(ids, deltas)
    if ids.size < NETTING_CROSSOVER:
        return net_deltas(zip(ids.tolist(), deltas.tolist()))
    return net_arrays(ids, deltas)


def net_events(net) -> int:
    """Net unit events of a :func:`net_batch` result: sum of ``|delta|``."""
    if isinstance(net, tuple):
        return int(_np.abs(net[1]).sum())
    return sum(map(abs, net.values()))


class ArrayBatch:
    """One batch as parallel int64 id/delta arrays.

    The carrier of the binary ingest path: a decoded wire batch holds
    ``np.frombuffer`` views of the frame body, so decoding makes no
    per-event Python objects.  :meth:`~repro.api.Profiler.
    ingest_batches` takes it as the batch ``ingest_arrays(ids,
    deltas)`` would apply, netted by :func:`net_batch` — with a dict,
    one boxed int per id and delta, when the batch is small.
    """

    __slots__ = ("ids", "deltas")

    def __init__(self, ids, deltas) -> None:
        self.ids = ids
        self.deltas = deltas

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArrayBatch)
            and list(self.ids) == list(other.ids)
            and list(self.deltas) == list(other.deltas)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayBatch(n={len(self)})"


class SProfile(ProfileQueryMixin):
    """The paper's profiler: O(1) updates, O(1) order-statistic queries.

    Parameters
    ----------
    capacity:
        ``m``, the maximum number of distinct objects.  Ids are dense
        integers in ``[0, capacity)``; for arbitrary ids open
        ``Profiler.open(keys="hashable")``, which interns them.
    allow_negative:
        Permit frequencies below zero (paper semantics, default).  When
        False, removing an object at frequency 0 raises
        :class:`~repro.errors.FrequencyUnderflowError`.
    track_freq_index:
        Maintain a frequency -> block dict so :meth:`support` and
        :meth:`objects_with_frequency` are O(1).  Slight per-update cost;
        see ``benchmarks/bench_ablation_freq_index.py``.
    recycle_blocks:
        Reuse emptied block objects through a free list (default).  Off,
        every block birth allocates a fresh object — the ablation knob
        for ``benchmarks/bench_ablation_pool.py``.
    pool:
        Block allocator.  By default a fresh
        :class:`~repro.core.block.BlockPool` bounded at
        ``max_free=capacity`` — at most ``m`` blocks are ever live, so
        retaining more idle ones would be a leak on long adversarial
        runs.  Pass an explicit pool to share or unbound it.

    Examples
    --------
    >>> p = SProfile(capacity=5)
    >>> for x in [1, 1, 3, 1, 2]:
    ...     p.add(x)
    >>> p.mode().frequency, p.mode().example
    (3, 1)
    >>> p.remove(1)
    >>> p.top_k(2)
    [TopEntry(obj=1, frequency=2), TopEntry(obj=3, frequency=1)]
    """

    #: Registry-facing metadata (duck-typed counterpart of ProfilerBase).
    name = "sprofile"
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
        "_blocks",
        "_ptrb",
        "_fidx",
        "_free",
        "_allow_negative",
        "_recycle",
        "_base_total",
        "_n_adds",
        "_n_removes",
    )

    def __init__(
        self,
        capacity: int,
        *,
        allow_negative: bool = True,
        track_freq_index: bool = False,
        recycle_blocks: bool = True,
        pool: BlockPool | None = None,
    ) -> None:
        if capacity < 0:
            raise CapacityError(f"capacity must be >= 0, got {capacity}")
        self._m = capacity
        self._ftot = list(range(capacity))
        self._ttof = list(range(capacity))
        # The pool is bounded by the universe size by default: at most
        # m blocks can ever be live, so idle blocks beyond that are
        # pure retention — long adversarial runs must not accumulate
        # them.  Pass an explicit pool to share or unbound it.
        if pool is None:
            pool = BlockPool(max_free=capacity)
        self._blocks = BlockSet(
            capacity, 0, track_freq_index=track_freq_index, pool=pool
        )
        self._sync_aliases()
        self._allow_negative = allow_negative
        self._recycle = recycle_blocks
        self._base_total = 0
        self._n_adds = 0
        self._n_removes = 0

    @classmethod
    def from_frequencies(
        cls,
        frequencies: Sequence[int],
        *,
        allow_negative: bool = True,
        track_freq_index: bool = False,
    ) -> "SProfile":
        """Bulk-build a profile from an initial frequency array.

        O(m log m) — one sort.  Used e.g. by graph shaving to start from a
        degree sequence instead of replaying every edge.
        """
        freqs = list(frequencies)
        if not allow_negative and any(f < 0 for f in freqs):
            raise FrequencyUnderflowError(
                "negative initial frequency with allow_negative=False"
            )
        self = cls(0, allow_negative=allow_negative)
        m = len(freqs)
        ttof = sorted(range(m), key=freqs.__getitem__)
        runs = _runs_from_sorted(ttof, freqs)
        self._install(
            ttof,
            runs,
            allow_negative=allow_negative,
            track_freq_index=track_freq_index,
        )
        self._base_total = sum(freqs)
        return self

    # ------------------------------------------------------------------
    # Updates (the O(1) hot path)
    # ------------------------------------------------------------------

    def add(self, x: int) -> None:
        """Process an "add" event for object ``x``.  O(1) worst case."""
        m = self._m
        if not 0 <= x < m:
            raise CapacityError(f"object id {x} out of range [0, {m})")
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        i = ftot[x]
        b = ptrb[i]
        r = b.r
        f = b.f
        self._n_adds += 1

        # Swap x with the element at the right edge of its block; both
        # hold frequency f, so the sorted order of T is untouched.
        if i != r:
            y = ttof[r]
            ttof[r] = x
            ttof[i] = y
            ftot[x] = r
            ftot[y] = i

        fidx = self._fidx
        f1 = f + 1
        nxt = r + 1

        if b.l == r:
            # x's block is a singleton.  Unless it must merge into an
            # adjacent f+1 block, bump its frequency in place — no block
            # is born or dies.  This is the hot pattern of skewed
            # streams (one popular object climbing on its own).
            if nxt < m:
                right = ptrb[nxt]
                if right.f == f1:
                    self._blocks._n_blocks -= 1
                    if fidx is not None and fidx.get(f) is b:
                        del fidx[f]
                    if self._recycle:
                        self._free.append(b)
                    right.l = r
                    ptrb[r] = right
                    return
            if fidx is not None:
                if fidx.get(f) is b:
                    del fidx[f]
                fidx[f1] = b
            b.f = f1
            return

        # General case: shrink x's old block from the right and attach
        # rank r to the f+1 block (extend it or create a singleton).
        b.r = r - 1
        if nxt < m:
            right = ptrb[nxt]
            if right.f == f1:
                right.l = r
                ptrb[r] = right
                return
        free = self._free
        if free:
            nb = free.pop()
            nb.l = r
            nb.r = r
            nb.f = f1
        else:
            nb = Block(r, r, f1)
        self._blocks._n_blocks += 1
        if fidx is not None:
            fidx[f1] = nb
        ptrb[r] = nb

    def remove(self, x: int) -> None:
        """Process a "remove" event for object ``x``.  O(1) worst case."""
        m = self._m
        if not 0 <= x < m:
            raise CapacityError(f"object id {x} out of range [0, {m})")
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        i = ftot[x]
        b = ptrb[i]
        l = b.l
        f = b.f

        if f <= 0 and not self._allow_negative:
            raise FrequencyUnderflowError(
                f"removing object {x} at frequency {f} would go negative"
            )
        self._n_removes += 1

        # Swap x with the element at the left edge of its block.
        if i != l:
            y = ttof[l]
            ttof[l] = x
            ttof[i] = y
            ftot[x] = l
            ftot[y] = i

        fidx = self._fidx
        f1 = f - 1
        prv = l - 1

        if b.r == l:
            # Singleton block: bump in place unless it must merge into
            # an adjacent f-1 block (mirror of the add fast path).
            if prv >= 0:
                left = ptrb[prv]
                if left.f == f1:
                    self._blocks._n_blocks -= 1
                    if fidx is not None and fidx.get(f) is b:
                        del fidx[f]
                    if self._recycle:
                        self._free.append(b)
                    left.r = l
                    ptrb[l] = left
                    return
            if fidx is not None:
                if fidx.get(f) is b:
                    del fidx[f]
                fidx[f1] = b
            b.f = f1
            return

        # General case: shrink x's old block from the left and attach
        # rank l to the f-1 block (extend it or create a singleton).
        b.l = l + 1
        if prv >= 0:
            left = ptrb[prv]
            if left.f == f1:
                left.r = l
                ptrb[l] = left
                return
        free = self._free
        if free:
            nb = free.pop()
            nb.l = l
            nb.r = l
            nb.f = f1
        else:
            nb = Block(l, l, f1)
        self._blocks._n_blocks += 1
        if fidx is not None:
            fidx[f1] = nb
        ptrb[l] = nb

    def update(self, x: int, is_add: bool) -> None:
        """Apply one log-stream tuple ``(x, c)``."""
        if is_add:
            self.add(x)
        else:
            self.remove(x)

    def add_count(self, x: int, count: int) -> None:
        """Apply ``count`` adds to ``x``.

        Semantically ``count`` unit steps, executed as a climb through
        the block structure: O(#blocks crossed) <= O(count), and O(1)
        when ``x`` already sits alone in its block."""
        if count < 0:
            raise CapacityError(f"count must be >= 0, got {count}")
        if count:
            self._bulk_add({x: count})

    def remove_count(self, x: int, count: int) -> None:
        """Apply ``count`` removes to ``x``.  Mirror of :meth:`add_count`."""
        if count < 0:
            raise CapacityError(f"count must be >= 0, got {count}")
        if count:
            self._bulk_remove({x: count})

    def consume(self, events: Iterable[tuple[int, bool]]) -> int:
        """Apply a sequence of ``(object, is_add)`` tuples; return count."""
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

    def consume_arrays(self, ids, adds) -> int:
        """Apply parallel arrays of object ids and add flags.

        Accepts numpy arrays (converted once via ``tolist()`` — item
        access on ndarrays is far slower than on lists in the interpreter
        loop) or plain sequences.  This is the path every benchmark uses,
        for all profilers alike.
        """
        id_list = ids.tolist() if hasattr(ids, "tolist") else list(ids)
        add_list = adds.tolist() if hasattr(adds, "tolist") else list(adds)
        if len(id_list) != len(add_list):
            raise CapacityError(
                f"ids ({len(id_list)}) and adds ({len(add_list)}) differ"
            )
        add = self.add
        remove = self.remove
        for x, is_add in zip(id_list, add_list):
            if is_add:
                add(x)
            else:
                remove(x)
        return len(id_list)

    # ------------------------------------------------------------------
    # Batch ingestion (coalesced; O(unique keys + blocks crossed))
    # ------------------------------------------------------------------
    # Batch semantics, shared by add_many / remove_many / apply: the
    # batch is treated as an unordered multiset of events.  Repeated
    # keys coalesce into one climb, so the final frequency array (and
    # therefore every query answer) matches the per-event loop, while
    # object *identity* inside equal-frequency ties may differ — ties
    # are unordered in the paper's model.  Out-of-range ids and
    # strict-mode underflows are rejected before any mutation: a
    # failed batch leaves the profile untouched and may be
    # re-submitted (all-or-nothing, unlike ``consume``'s
    # event-at-a-time no-rollback contract).

    def add_many(self, xs: Iterable[int]) -> int:
        """Apply one add per element of ``xs``; return the event count.

        Equivalent to ``for x in xs: self.add(x)`` up to tie order.
        Repeated keys are coalesced: a key occurring ``c`` times costs
        O(#blocks crossed) <= O(c), and the per-event interpreter
        overhead (method dispatch, bound checks, counter bumps) is paid
        once per batch instead of once per event.
        """
        if hasattr(xs, "tolist"):
            xs = xs.tolist()
        counts = Counter(xs)
        if not counts:
            return 0
        if len(counts) * 2 >= self._m:
            n = sum(counts.values())
            self._apply_rebuild(counts)
            self._n_adds += n
            return n
        return self._bulk_add(counts)

    def remove_many(self, xs: Iterable[int]) -> int:
        """Apply one remove per element of ``xs``; return the event count.

        Mirror of :meth:`add_many`.  In strict mode a key removed more
        times than its current frequency raises
        :class:`~repro.errors.FrequencyUnderflowError` before *any* of
        the batch is applied (all-or-nothing, as in :meth:`apply`).
        """
        if hasattr(xs, "tolist"):
            xs = xs.tolist()
        counts = Counter(xs)
        if not counts:
            return 0
        if len(counts) * 2 >= self._m:
            n = sum(counts.values())
            self._apply_rebuild({x: -c for x, c in counts.items()})
            self._n_removes += n
            return n
        if not self._allow_negative:
            ptrb = self._ptrb
            ftot = self._ftot
            m = self._m
            for x, c in counts.items():
                if not 0 <= x < m:
                    raise CapacityError(
                        f"object id {x} out of range [0, {m})"
                    )
                f = ptrb[ftot[x]].f
                if c > f:
                    raise FrequencyUnderflowError(
                        f"removing object {x} at frequency {f} "
                        f"{c} times would go negative"
                    )
        return self._bulk_remove(counts)

    def apply(self, deltas) -> int:
        """Apply a batch of ``(object, delta)`` pairs (or a mapping).

        Deltas of either sign are accepted and summed per key; the net
        delta is applied as a climb.  Returns the number of net unit
        events applied (``sum(abs(net_delta))``), which is what the
        ``n_adds`` / ``n_removes`` counters are advanced by — opposing
        deltas for the same key cancel before touching the structure.
        In strict mode a key whose *net* final frequency would be
        negative raises (batch order is not observable: adds for a key
        are considered before its removes), and the raise happens
        before any of the batch is applied — a rejected ``apply``
        leaves the profile untouched, so callers may re-submit.

        >>> p = SProfile(capacity=4)
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
            self._apply_rebuild(
                {x: net[x] for x in net if net[x]}
            )
            self._n_adds += n_add
            self._n_removes += n_rem
            return n_add + n_rem
        if removes and not self._allow_negative:
            # Pre-check every underflow before mutating anything, so a
            # strict-mode reject is all-or-nothing (add/remove key sets
            # are disjoint, so the adds cannot rescue a remove key).
            ptrb = self._ptrb
            ftot = self._ftot
            for x, c in removes.items():
                f = ptrb[ftot[x]].f
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
        """Wholesale path for batches that touch much of the universe.

        When the coalesced batch names a large fraction of the ``m``
        keys, per-key climbs degenerate (a climb crosses up to one
        block per unit step in a dense frequency landscape), while
        recomputing the frequency array and re-sorting it once is
        O(m log m) with C-speed constants.  Keys must be pre-validated;
        strict-mode underflow is checked on the *net* result per key
        before any mutation, so a raise leaves this batch unapplied.
        """
        m = self._m
        for x in net:
            if not 0 <= x < m:
                raise CapacityError(f"object id {x} out of range [0, {m})")
        freqs = self.frequencies()
        if not self._allow_negative:
            for x, d in net.items():
                if freqs[x] + d < 0:
                    raise FrequencyUnderflowError(
                        f"removing object {x} at frequency {freqs[x]} "
                        f"{-d} times (net) would go negative"
                    )
        for x, d in net.items():
            freqs[x] += d
        ttof = sorted(range(m), key=freqs.__getitem__)
        self._install(
            ttof,
            _runs_from_sorted(ttof, freqs),
            allow_negative=self._allow_negative,
            track_freq_index=self._blocks.tracks_freq_index,
            audit=False,
        )

    def _bulk_add(self, counts: Mapping[int, int]) -> int:
        """Add ``counts[x]`` (> 0) to every key of ``counts``.

        Each key is one *climb*: detach ``x`` from its block (right-edge
        swap, as in ``add``), then leapfrog whole blocks whose frequency
        the target exceeds — all elements of a block share one
        frequency, so crossing a block is a single edge swap plus three
        pointer writes, O(1) regardless of block size — and finally
        land by joining the block at the target frequency or minting a
        singleton in the gap.  O(#blocks crossed + 1) per key, which is
        at most min(count, #blocks) and usually far less.
        """
        m = self._m
        for x in counts:
            if not 0 <= x < m:
                raise CapacityError(f"object id {x} out of range [0, {m})")
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        fidx = self._fidx
        free = self._free
        blocks = self._blocks
        recycle = self._recycle
        n = 0
        for x, c in counts.items():
            n += c
            i = ftot[x]
            b = ptrb[i]
            f = b.f
            target = f + c
            if b.l == b.r:
                # x already alone: its block travels (or retunes) with it.
                carry = b
            else:
                # Detach at the right edge; b keeps the rest.
                carry = None
                r = b.r
                if i != r:
                    y = ttof[r]
                    ttof[r] = x
                    ttof[i] = y
                    ftot[x] = r
                    ftot[y] = i
                b.r = r - 1
                i = r
            while True:
                nxt = i + 1
                if nxt < m:
                    right = ptrb[nxt]
                    rf = right.f
                    if rf <= target:
                        if rf == target:
                            # Land: join the target block's left edge.
                            if carry is not None:
                                blocks._n_blocks -= 1
                                if fidx is not None and fidx.get(f) is carry:
                                    del fidx[f]
                                if recycle:
                                    free.append(carry)
                            right.l = i
                            ptrb[i] = right
                            break
                        # Leapfrog the whole block: swap x with its
                        # right-edge element and shift the block left.
                        R = right.r
                        z = ttof[R]
                        ttof[i] = z
                        ttof[R] = x
                        ftot[z] = i
                        ftot[x] = R
                        right.l = i
                        right.r = R - 1
                        ptrb[i] = right
                        i = R
                        continue
                # Land in a gap (or past the topmost block).
                if carry is not None:
                    if fidx is not None:
                        if fidx.get(f) is carry:
                            del fidx[f]
                        fidx[target] = carry
                    carry.l = i
                    carry.r = i
                    carry.f = target
                else:
                    if free:
                        nb = free.pop()
                        nb.l = i
                        nb.r = i
                        nb.f = target
                    else:
                        nb = Block(i, i, target)
                    blocks._n_blocks += 1
                    if fidx is not None:
                        fidx[target] = nb
                    carry = nb
                ptrb[i] = carry
                break
        self._n_adds += n
        return n

    def _bulk_remove(self, counts: Mapping[int, int]) -> int:
        """Remove ``counts[x]`` (> 0) from every key; mirror of
        :meth:`_bulk_add` descending at the left edge."""
        m = self._m
        for x in counts:
            if not 0 <= x < m:
                raise CapacityError(f"object id {x} out of range [0, {m})")
        ftot = self._ftot
        ttof = self._ttof
        ptrb = self._ptrb
        fidx = self._fidx
        free = self._free
        blocks = self._blocks
        recycle = self._recycle
        strict = not self._allow_negative
        n = 0
        for x, c in counts.items():
            i = ftot[x]
            b = ptrb[i]
            f = b.f
            if strict and c > f:
                # Raised before any of this key's removes apply; keys
                # already processed stay applied (consume's contract).
                self._n_removes += n
                raise FrequencyUnderflowError(
                    f"removing object {x} at frequency {f} "
                    f"{c} times would go negative"
                )
            n += c
            target = f - c
            if b.l == b.r:
                carry = b
            else:
                carry = None
                l = b.l
                if i != l:
                    y = ttof[l]
                    ttof[l] = x
                    ttof[i] = y
                    ftot[x] = l
                    ftot[y] = i
                b.l = l + 1
                i = l
            while True:
                prv = i - 1
                if prv >= 0:
                    left = ptrb[prv]
                    lf = left.f
                    if lf >= target:
                        if lf == target:
                            # Land: join the target block's right edge.
                            if carry is not None:
                                blocks._n_blocks -= 1
                                if fidx is not None and fidx.get(f) is carry:
                                    del fidx[f]
                                if recycle:
                                    free.append(carry)
                            left.r = i
                            ptrb[i] = left
                            break
                        # Leapfrog: swap x with the block's left-edge
                        # element and shift the block right.
                        L = left.l
                        z = ttof[L]
                        ttof[i] = z
                        ttof[L] = x
                        ftot[z] = i
                        ftot[x] = L
                        left.l = L + 1
                        left.r = i
                        ptrb[i] = left
                        i = L
                        continue
                # Land in a gap (or below the bottommost block).
                if carry is not None:
                    if fidx is not None:
                        if fidx.get(f) is carry:
                            del fidx[f]
                        fidx[target] = carry
                    carry.l = i
                    carry.r = i
                    carry.f = target
                else:
                    if free:
                        nb = free.pop()
                        nb.l = i
                        nb.r = i
                        nb.f = target
                    else:
                        nb = Block(i, i, target)
                    blocks._n_blocks += 1
                    if fidx is not None:
                        fidx[target] = nb
                    carry = nb
                ptrb[i] = carry
                break
        self._n_removes += n
        return n

    # ------------------------------------------------------------------
    # Growth (hosting a growing universe; amortized O(1) with doubling)
    # ------------------------------------------------------------------

    def grow(self, extra: int) -> None:
        """Extend capacity by ``extra`` fresh objects at frequency 0.

        O(m + extra) rebuild: the new zero-frequency ranks are spliced at
        the position where frequency 0 belongs in the ascending order, so
        the operation is valid in both strict and negative modes.  With
        capacity doubling (as the facade drives it for a hashable
        universe opened without a capacity) the amortized cost per
        registered object is O(1).
        """
        if extra <= 0:
            raise CapacityError(f"extra must be positive, got {extra}")
        old_m = self._m
        new_m = old_m + extra

        # Rank where the zero run begins (first block with f >= 0).
        splice = old_m
        for block in self._blocks.iter_blocks():
            if block.f >= 0:
                splice = block.l
                break

        new_ttof = (
            self._ttof[:splice]
            + list(range(old_m, new_m))
            + self._ttof[splice:]
        )
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

        self._install(
            new_ttof,
            runs,
            allow_negative=self._allow_negative,
            track_freq_index=self._blocks.tracks_freq_index,
        )

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
        """Current number of blocks (distinct frequencies)."""
        return self._blocks.n_blocks

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
        # Guard the tiny negative residue floating-point cancellation
        # can leave when all frequencies are equal.
        return max(variance, 0.0)

    @property
    def blocks(self) -> BlockSet:
        """Read access to the underlying block set."""
        return self._blocks

    # O(1) overrides of the mixin's generic lookups — these sit inside
    # benchmark timing loops, so they skip the block_at plumbing.

    def max_frequency(self) -> int:
        """The largest frequency (the mode's frequency).  O(1)."""
        if self._m == 0:
            return self._blocks.rightmost().f  # raises EmptyProfileError
        return self._ptrb[self._m - 1].f

    def min_frequency(self) -> int:
        """The smallest frequency.  O(1)."""
        if self._m == 0:
            return self._blocks.leftmost().f  # raises EmptyProfileError
        return self._ptrb[0].f

    def median_frequency(self) -> int:
        """Lower median of the frequency array.  O(1)."""
        m = self._m
        if m == 0:
            return self._capacity_checked()  # raises EmptyProfileError
        return self._ptrb[(m - 1) // 2].f

    # ------------------------------------------------------------------
    # Structure management
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Reset every frequency to zero (keeps capacity and settings)."""
        track = self._blocks.tracks_freq_index
        self._ftot = list(range(self._m))
        self._ttof = list(range(self._m))
        self._blocks = BlockSet(
            self._m,
            0,
            track_freq_index=track,
            pool=BlockPool(max_free=self._m),
        )
        self._sync_aliases()
        self._base_total = 0
        self._n_adds = 0
        self._n_removes = 0

    def copy(self) -> "SProfile":
        """Independent deep copy of the profiler."""
        clone = SProfile(0, allow_negative=self._allow_negative)
        clone._install(
            list(self._ttof),
            self._blocks.as_tuples(),
            allow_negative=self._allow_negative,
            track_freq_index=self._blocks.tracks_freq_index,
        )
        clone._recycle = self._recycle
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
        out = [0] * self._m
        ttof = self._ttof
        for block in self._blocks.iter_blocks():
            f = block.f
            for rank in range(block.l, block.r + 1):
                out[ttof[rank]] = f
        return out

    def _install(
        self,
        ttof: list[int],
        runs: list[tuple[int, int, int]],
        *,
        allow_negative: bool,
        track_freq_index: bool,
        audit: bool = True,
    ) -> None:
        """Replace the permutation and block structure wholesale.

        ``audit=False`` skips the O(m) structural verification; only
        for runs that are correct by construction (see
        :meth:`~repro.core.blockset.BlockSet.from_runs`).
        """
        m = len(ttof)
        ftot = [0] * m
        for rank, obj in enumerate(ttof):
            ftot[obj] = rank
        self._m = m
        self._ttof = ttof
        self._ftot = ftot
        self._blocks = BlockSet.from_runs(
            m,
            runs,
            track_freq_index=track_freq_index,
            pool=BlockPool(max_free=m),
            audit=audit,
        )
        self._sync_aliases()
        self._allow_negative = allow_negative

    def _sync_aliases(self) -> None:
        """Refresh the hot-path aliases after a structure swap.

        ``_ptrb``, ``_fidx`` and ``_free`` alias block-set internals so
        the O(1) update path spends one attribute load fewer per event;
        any code replacing ``self._blocks`` must call this.
        """
        self._ptrb = self._blocks._ptrb
        self._fidx = self._blocks._freq_index
        self._free = self._blocks._pool._free

    def __repr__(self) -> str:
        return (
            f"SProfile(capacity={self._m}, total={self.total}, "
            f"blocks={self._blocks.n_blocks}, events={self.n_events})"
        )


def _runs_from_sorted(
    ttof: Sequence[int], freqs: Sequence[int]
) -> list[tuple[int, int, int]]:
    """Compute ``(l, r, f)`` runs of equal frequency along sorted ranks."""
    runs: list[tuple[int, int, int]] = []
    m = len(ttof)
    rank = 0
    while rank < m:
        f = freqs[ttof[rank]]
        start = rank
        while rank + 1 < m and freqs[ttof[rank + 1]] == f:
            rank += 1
        runs.append((start, rank, f))
        rank += 1
    return runs
