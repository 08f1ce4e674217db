"""The unified profiler facade: one front door, any backend.

:class:`Profiler` is the documented way into the package.  It replaces
the choose-an-implementation-first surfaces (``SProfile``,
``FlatProfile``, ``ShardedProfiler``) with a single factory::

    profiler = Profiler.open(capacity, backend="auto", keys="dense")

one ingest verb (:meth:`Profiler.ingest`, superseding the
``add``/``add_many``/``apply`` zoo), one query surface, and
a fused multi-query plan (:meth:`Profiler.evaluate`, see
:mod:`repro.api.plan`).  Backends stay importable for code that needs
the raw structures; the facade guarantees they all answer through the
same vocabulary with the same edge semantics.

>>> p = Profiler.open(100, backend="exact")
>>> p.ingest([(7, True), (7, True), (3, True)])   # flag pairs
3
>>> p.ingest({7: +1, 5: +2})                      # a delta mapping
3
>>> p.mode().example, p.mode().frequency
(7, 3)
>>> p.quantile(1.0)
3

Hashable keys ride the same surface.  The facade interns them onto a
dense core, the paper's one-time mapping of ids onto ``[1, m]``;
without a ``capacity`` the core grows by doubling as new keys arrive.
Queries answer over the registered keys only:

>>> likes = Profiler.open(keys="hashable")
>>> likes.ingest([("ada", +2), ("bob", +1)])
3
>>> likes.top_k(5)
[TopEntry(obj='ada', frequency=2), TopEntry(obj='bob', frequency=1)]
>>> likes.least().frequency, len(likes)
(1, 2)
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Any, Hashable, Iterator

import numpy as np

from repro.api.backends import (
    ApproxProfiler,
    build_backend,
    resolve_backend,
    runs_view_for,
)
from repro.api.plan import Query, evaluate_fused, normalize_queries
from repro.api.results import EvalResult
from repro.core.checkpoint import (
    flat_profile_from_state,
    profile_from_state,
    profile_to_state,
)
from repro.core.flat import FlatProfile
from repro.core.interner import ObjectInterner
from repro.core.profile import (
    ArrayBatch,
    SProfile,
    net_arrays,
    net_batch,
    net_deltas,
    net_events,
)
from repro.core.queries import ModeResult, TopEntry, quantile_rank
from repro.core.snapshot import ProfileSnapshot
from repro.engine.sharding import ShardedProfiler
from repro.errors import (
    CapacityError,
    CheckpointError,
    EmptyProfileError,
    FrequencyUnderflowError,
    UnsupportedQueryError,
)
from repro.obs.registry import resolve_registry
from repro.streams.events import Action, Event

__all__ = ["API_STATE_VERSION", "Profiler"]

#: Bump when the facade checkpoint layout changes incompatibly.
API_STATE_VERSION = 1

_KEY_MODES = ("dense", "hashable")

#: First size of a growable core; it doubles from here.
_MIN_GROWTH = 8

_DENSE_ARRAYS_ONLY = (
    "ingest_arrays() requires dense keys; hashable keys take the "
    "ingest() vocabulary"
)


def _is_count(value: Any) -> bool:
    """Whether a checkpoint field is a plain non-negative int."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) and value >= 0


def _detuple(key: Any) -> Any:
    """Undo JSON's tuple-to-list rewrite of a catalog key, recursively.

    Lists are unhashable, so no valid key is a list: every list in a
    loaded catalog was a tuple when it was saved.
    """
    if isinstance(key, list):
        return tuple(_detuple(item) for item in key)
    return key


def _normalize_batch(batch) -> list[tuple[Any, int]]:
    """Flatten one ingest batch into ``(obj, delta)`` pairs.

    Accepted item shapes, freely mixed inside one iterable:

    - :class:`~repro.streams.events.Event` — one ±1 event;
    - ``(obj, Action)`` / ``(obj, bool)`` — one ±1 event (booleans are
      add/remove flags);
    - ``(obj, int)`` — a signed multi-event delta;
    - a mapping ``obj -> delta`` may be passed instead of an iterable.
    """
    if hasattr(batch, "items"):
        return [(obj, int(d)) for obj, d in batch.items()]
    deltas: list[tuple[Any, int]] = []
    for item in batch:
        if isinstance(item, Event):
            deltas.append((item.obj, 1 if item.is_add else -1))
            continue
        try:
            obj, action = item
        except (TypeError, ValueError) as exc:
            raise CapacityError(
                f"cannot interpret ingest item {item!r}: expected an "
                f"Event, an (obj, flag) pair or an (obj, delta) pair"
            ) from exc
        if isinstance(action, Action):
            deltas.append((obj, 1 if action is Action.ADD else -1))
        elif isinstance(action, bool):
            deltas.append((obj, 1 if action else -1))
        elif isinstance(action, int):
            deltas.append((obj, action))
        else:
            raise CapacityError(
                f"cannot interpret ingest item {item!r}: second element "
                f"must be an Action, bool flag or int delta"
            )
    return deltas


def _engine_stats(profile) -> dict[str, Any]:
    """Allocator/structure stats for one dense core (flat or block)."""
    if isinstance(profile, FlatProfile):
        return {
            "kind": "flat",
            "storage": "array" if profile.array_engine else "list",
            "block_count": profile.block_count,
            "block_slots": profile.block_slots,
            "free_slots": profile.free_slots,
        }
    pool = profile.blocks.pool
    stats = pool.stats
    return {
        "kind": "sprofile",
        "block_count": profile.block_count,
        "freq_index": profile.blocks.tracks_freq_index,
        "pool": {
            "free": pool.free_count,
            "max_free": pool.max_free,
            "created": stats.created,
            "recycled": stats.recycled,
            "released": stats.released,
        },
    }


class Profiler:
    """One profiler, any backend.  Construct via :meth:`open`.

    The facade owns three things the raw structures do not:

    - backend selection (``"auto"``/``"exact"``/``"sharded"``/
      ``"approx"``/any registry baseline) behind one contract;
    - key translation — ``keys="hashable"`` accepts arbitrary hashable
      ids over *every* backend, interning them to the dense universe
      the paper's structures require.  On a single core (``flat``,
      ``exact``) queries answer over registered keys only: the core's
      unclaimed slots are *phantoms* pinned at frequency 0, never
      named and never counted;
    - the fused query plan: :meth:`evaluate` answers a batch of
      :class:`~repro.api.plan.Query` descriptions in one block walk.
    """

    __slots__ = (
        "_impl",
        "_backend_name",
        "_keys",
        "_strict",
        "_interner",
        "_capacity",
        "_core",
        "_batches",
        "_events",
        "_obs",
        "_obs_batches",
        "_obs_events",
        "_obs_queries",
    )

    def __init__(
        self,
        impl,
        *,
        backend_name: str,
        keys: str,
        strict: bool,
        interner: ObjectInterner | None,
        capacity: int | None,
        obs=None,
    ) -> None:
        self._impl = impl
        self._backend_name = backend_name
        self._keys = keys
        self._strict = bool(strict)
        self._interner = interner
        self._capacity = capacity
        # The dense core of a single-core hashable universe, whose
        # queries skip the phantom slots; None everywhere else.
        self._core = (
            impl
            if interner is not None
            and isinstance(impl, (SProfile, FlatProfile))
            else None
        )
        self._batches = 0
        self._events = 0
        # Preallocated instrument slots: the ingest hot path touches
        # bound counters only — no name lookups, and with obs disabled
        # the bound instruments are the shared no-op singletons.
        self._obs = resolve_registry(obs)
        self._obs_batches = self._obs.counter("profiler.ingest.batches")
        self._obs_events = self._obs.counter("profiler.ingest.events")
        self._obs_queries = self._obs.counter("profiler.queries")
        if isinstance(impl, (FlatProfile, ApproxProfiler)):
            impl._bind_obs(self._obs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        capacity: int | None = None,
        *,
        backend: str = "auto",
        shards: int | None = None,
        keys: str = "dense",
        strict: bool = False,
        track_freq_index: bool = False,
        **options,
    ) -> "Profiler":
        """Open a profiler on the chosen backend.

        Parameters
        ----------
        capacity:
            Universe size ``m``.  Required for dense keys.  With
            ``keys="hashable"`` it bounds the keys that may register,
            on every backend; the ``flat`` and ``exact`` cores may omit
            it, and then grow by doubling as keys arrive.  Optional for
            ``backend="approx"`` (sketches are sublinear).
        backend:
            ``"auto"`` (sharded when ``shards`` is given, block-object
            exact when ``track_freq_index`` is set, the flat
            struct-of-arrays engine otherwise), ``"flat"``,
            ``"exact"``, ``"sharded"``, ``"approx"`` or any name from
            :func:`repro.baselines.registry.available_profilers`.
        shards:
            Shard fan-out; implies the sharded backend under ``auto``.
        keys:
            ``"dense"`` — integer ids in ``[0, capacity)`` (the paper's
            setting); ``"hashable"`` — arbitrary hashable ids.
        strict:
            Forbid negative frequencies: a remove below zero raises
            :class:`~repro.errors.FrequencyUnderflowError` and rejects
            the whole batch.
        track_freq_index:
            Maintain the O(1) frequency->block index on block-structured
            backends.
        options:
            Backend-specific knobs (``approx``: ``counters``, ``eps``,
            ``delta``, ``seed``; ``flat``: ``array_engine=True`` hosts
            the struct-of-arrays state in ``int64`` ndarrays, the
            fastest target for vectorized batch ingest — see
            :meth:`ingest_arrays`).  ``obs`` selects the metrics
            registry: ``None``/``True`` — the process default
            (disabled under ``REPRO_OBS=0``), ``False`` — no-op
            instrumentation, or an explicit
            :class:`~repro.obs.MetricsRegistry`.
        """
        obs = options.pop("obs", None)
        if keys not in _KEY_MODES:
            raise CapacityError(
                f"keys must be one of {_KEY_MODES}, got {keys!r}"
            )
        if capacity is not None and capacity < 0:
            raise CapacityError(f"capacity must be >= 0, got {capacity}")
        if shards is not None and shards <= 0:
            raise CapacityError(f"shards must be positive, got {shards}")
        name = resolve_backend(
            backend, keys, shards, track_freq_index, capacity
        )
        impl, facade_interned = build_backend(
            backend,
            capacity,
            keys=keys,
            strict=strict,
            shards=shards,
            track_freq_index=track_freq_index,
            **options,
        )
        return cls(
            impl,
            backend_name=name,
            keys=keys,
            strict=strict,
            interner=ObjectInterner() if facade_interned else None,
            capacity=capacity,
            obs=obs,
        )

    @classmethod
    def from_frequencies(
        cls, frequencies, *, strict: bool = False
    ) -> "Profiler":
        """Bulk-open an exact dense profiler from a frequency array.

        One vectorized sort (NumPy) onto the flat struct-of-arrays
        engine; the entry point graph shaving uses to start from a
        degree sequence instead of replaying every edge.
        """
        profile = FlatProfile.from_frequencies(
            frequencies, allow_negative=not strict
        )
        return cls(
            profile,
            backend_name="flat",
            keys="dense",
            strict=strict,
            interner=None,
            capacity=profile.capacity,
        )

    # ------------------------------------------------------------------
    # Ingestion: the single write verb
    # ------------------------------------------------------------------

    def ingest(self, batch) -> int:
        """Apply one batch of events; return net unit events applied.

        Items may be :class:`~repro.streams.events.Event` objects,
        ``(obj, Action)`` / ``(obj, bool)`` flag pairs or
        ``(obj, delta)`` signed pairs, freely mixed; a mapping
        ``obj -> delta`` is accepted whole.  Deltas for one key are
        summed before anything is touched (batch semantics of
        :meth:`repro.core.profile.SProfile.apply`): opposing events
        cancel, tie order is unordered, and bad ids or strict-mode
        underflows reject the whole batch before any mutation.
        """
        deltas = _normalize_batch(batch)
        if self._interner is not None:
            payload = self._encode_interned(deltas, None)
        else:
            payload = deltas
        n = self._impl.apply(payload)
        self._count(1, len(deltas))
        return n

    def ingest_arrays(self, ids, deltas) -> int:
        """Apply one batch given as parallel integer arrays.

        The dense-key fast path of the binary wire protocol: ``ids``
        and ``deltas`` arrive as (NumPy) int64 arrays and are netted by
        :func:`~repro.core.profile.net_batch` — a dict over the boxed
        ids below its size crossover, one ``unique`` + scatter-add from
        it on — and the net feeds the core's ``apply``, or its
        ``apply_arrays`` for a NumPy net where it has one.  Identical
        batch semantics to :meth:`ingest` (all-or-nothing, strict-mode
        checks, same return value).

        Dense key mode only: hashable keys cannot ride raw integer
        arrays (use :meth:`ingest`).
        """
        if self._keys != "dense":
            raise CapacityError(_DENSE_ARRAYS_ONLY)
        n = self._apply_nets([net_batch(ids, deltas)])
        self._count(1, len(ids))
        return n

    def ingest_batches(self, batches) -> list[int | Exception]:
        """Apply many batches in one core call; return each outcome.

        Outcome ``i`` is what :meth:`ingest` would return for
        ``batches[i]``, or the exception it would raise (returned, not
        raised), had the batches admitted before it been ingested one
        at a time.  An :class:`~repro.core.profile.ArrayBatch` stands
        for :meth:`ingest_arrays` on its arrays.  Each batch is
        all-or-nothing; the admitted ones land in one merged core
        call.  This is the serving tier's group commit.
        """
        outcomes: list = []
        admitted: list = []
        pending: dict = {}
        for batch in batches:
            try:
                applied, events, net = self._admit(batch, pending)
            except Exception as exc:
                outcomes.append(exc)
                continue
            admitted.append((len(outcomes), events, net))
            outcomes.append(applied)
        if not admitted:
            return outcomes
        try:
            self._apply_nets([net for _i, _events, net in admitted])
        except Exception:
            # Only non-strict dense ids go unchecked, so only a bad id
            # lands here.  Core applies are atomic: applying each batch
            # alone is exactly the one-at-a-time history.
            landed = []
            for entry in admitted:
                try:
                    self._apply_nets([entry[2]])
                except Exception as exc:
                    outcomes[entry[0]] = exc
                else:
                    landed.append(entry)
            admitted = landed
        self._count(len(admitted), sum(entry[1] for entry in admitted))
        return outcomes

    def admit(self, batch, pending: dict) -> dict[int, int]:
        """Hold one dense batch to the strict rules without applying it.

        The check :meth:`ingest` runs on a strict dense profiler —
        every id in range, then no net removal below zero — against
        the current state plus ``pending`` (dense id -> net delta of
        batches admitted but not applied yet), whatever this
        profiler's own ``strict`` flag: a cluster's two-phase prepare,
        where strictness is the router's.  Returns the batch's net,
        which also joins ``pending``; raises what a strict
        :meth:`ingest` would raise.
        """
        if self._keys != "dense":
            raise CapacityError("admit() checks dense ids only")
        net = net_deltas(_normalize_batch(batch))
        self._check_dense(net, pending)
        return net

    def _admit(self, batch, pending: dict):
        """One batch's admission: ``(applied, events, net)``.

        ``net`` is the batch's dense payload for the merged core call:
        a net dict, or sorted ``(keys, sums)`` arrays for a large array
        batch that no rule reads (dense, non-strict, not approx), which
        stays in NumPy.  Non-strict dense ids go unchecked here: the
        core range-checks every key of the merged call.
        """
        approx = isinstance(self._impl, ApproxProfiler)
        strict = self._strict
        if isinstance(batch, ArrayBatch):
            if self._keys != "dense":
                raise CapacityError(_DENSE_ARRAYS_ONLY)
            events = len(batch)
            net = net_batch(batch.ids, batch.deltas)
            if isinstance(net, tuple):
                if not (approx or strict):
                    return net_events(net), events, net
                net = dict(zip(net[0].tolist(), net[1].tolist()))
        else:
            deltas = _normalize_batch(batch)
            events = len(deltas)
            if self._interner is not None:
                net = self._encode_interned(deltas, pending)
                return net_events(net), events, net
            net = net_deltas(deltas)
        if approx:
            for obj, d in net.items():
                if d < 0:
                    raise CapacityError(
                        f"approx backend is add-only; got net delta {d} "
                        f"for {obj!r}"
                    )
        elif strict:
            self._check_dense(net, pending)
        return net_events(net), events, net

    def _check_dense(self, net: dict, pending: dict) -> None:
        """The strict dense rule, in the core's order: every id in
        range, then no net removal below zero against the state plus
        ``pending``.  The batch's net then joins ``pending``."""
        impl = self._impl
        m = impl.capacity
        for x in net:
            if not 0 <= x < m:
                raise CapacityError(f"object id {x} out of range [0, {m})")
        for x, d in net.items():
            if d < 0:
                f = impl.frequency(x) + pending.get(x, 0)
                if f + d < 0:
                    raise FrequencyUnderflowError(
                        f"removing object {x} at frequency {f} {-d} "
                        f"times (net) would go negative"
                    )
        for x, d in net.items():
            pending[x] = pending.get(x, 0) + d

    def _apply_nets(self, nets: list) -> int:
        """Apply nets as one core call and return its count: one
        ``apply_arrays`` when all are arrays and the core takes them,
        else one ``apply`` of their merged dict (a lone dict as it is:
        no core's ``apply`` mutates its argument)."""
        impl = self._impl
        if len(nets) == 1 and isinstance(nets[0], dict):
            return impl.apply(nets[0])
        if hasattr(impl, "apply_arrays") and all(
            isinstance(net, tuple) for net in nets
        ):
            if len(nets) == 1:
                keys, sums = nets[0]
            else:
                keys, sums = net_arrays(
                    np.concatenate([keys for keys, _sums in nets]),
                    np.concatenate([sums for _keys, sums in nets]),
                )
            return impl.apply_arrays(keys, sums)
        merged: dict = {}
        for net in nets:
            if isinstance(net, tuple):
                net = zip(net[0].tolist(), net[1].tolist())
            else:
                net = net.items()
            for x, d in net:
                merged[x] = merged.get(x, 0) + d
        return impl.apply(merged)

    def _count(self, batches: int, events: int) -> None:
        """Count applied batches and the raw items they held."""
        self._batches += batches
        self._events += events
        self._obs_batches.inc(batches)
        self._obs_events.inc(events)

    def register(self, obj: Hashable) -> None:
        """Ensure ``obj`` is tracked (frequency 0 if new).

        Hashable keys only; dense universes are fully materialized.
        """
        if self._keys != "hashable":
            raise CapacityError(
                "register() applies to hashable keys; dense ids are "
                "always tracked"
            )
        interner = self._interner
        if interner is None:
            raise self._unsupported("register")
        if obj not in interner:
            growth = self._room(1)
            if growth:
                self._impl.grow(growth)
            interner.intern(obj)

    def _room(self, fresh: int) -> int:
        """Slots the core must grow by to take ``fresh`` new keys.

        A declared capacity bounds the universe: past it, raise.
        Without one, the core grows by doubling from 8 slots —
        amortized O(1) per registration, Tarjan–Zwick's resizable-array
        discipline.  The new slots are phantoms until keys claim them.
        """
        claimed = len(self._interner)
        bound = self._capacity
        if bound is not None:
            if claimed + fresh > bound:
                raise CapacityError(
                    f"registering {fresh} new keys would exceed capacity "
                    f"{bound} ({bound - claimed} slots remain)"
                )
            return 0
        size = self._impl.capacity
        target = size
        while target < claimed + fresh:
            target += max(target, _MIN_GROWTH)
        return target - size

    def _encode_interned(self, deltas, pending) -> dict[int, int]:
        """Net, validate and dense-encode deltas for an interned backend.

        One pass over the net map.  All-or-nothing, with a fixed error
        precedence: a strict removal of a never-seen key, then capacity
        overflow, then a known-key underflow against the state plus
        ``pending`` (``None`` for a lone :meth:`ingest`) — all raised
        before the core grows, any key registers or any frequency
        moves.  Under strict rules the encoded net then joins
        ``pending``.
        """
        net = net_deltas(deltas)
        strict = self._strict
        get = self._interner.get
        encoded: dict[int, int] = {}
        fresh = []
        underflow = None
        for obj, d in net.items():
            if not d:
                continue
            dense = get(obj)
            if dense is None:
                if strict and d < 0:
                    raise FrequencyUnderflowError(
                        f"cannot remove never-seen object {obj!r} in "
                        f"strict mode"
                    )
                fresh.append((obj, d))
                continue
            if strict and d < 0 and underflow is None:
                f = self._impl.frequency(dense)
                if pending:
                    f += pending.get(dense, 0)
                if f + d < 0:
                    underflow = FrequencyUnderflowError(
                        f"removing object {obj!r} at frequency {f} {-d} "
                        f"times (net) would go negative"
                    )
            encoded[dense] = d
        growth = self._room(len(fresh))
        if underflow is not None:
            raise underflow
        if growth:
            self._impl.grow(growth)
        intern = self._interner.intern
        for obj, d in fresh:
            encoded[intern(obj)] = d
        if strict and pending is not None:
            for dense, d in encoded.items():
                pending[dense] = pending.get(dense, 0) + d
        return encoded

    # ------------------------------------------------------------------
    # Key translation and phantom slots
    # ------------------------------------------------------------------

    def _decode_key(self, dense):
        """External name of a dense id.

        A sharded or baseline hashable universe is fixed at
        ``capacity``: a slot no key has claimed yet still exists at
        frequency 0 and reports its dense id.  Single cores never
        name such a slot (see :meth:`_phantoms`).
        """
        interner = self._interner
        if interner is None:
            return dense
        if dense < len(interner):
            return interner.external(dense)
        return dense

    def _decode_entry(self, entry: TopEntry) -> TopEntry:
        if self._interner is None:
            return entry
        return TopEntry(self._decode_key(entry.obj), entry.frequency)

    def _decode_mode(self, result: ModeResult) -> ModeResult:
        if self._interner is None:
            return result
        return ModeResult(
            frequency=result.frequency,
            count=result.count,
            example=self._decode_key(result.example),
        )

    def _unsupported(self, query: str) -> UnsupportedQueryError:
        return UnsupportedQueryError(self.backend_name, query)

    def _phantoms(self) -> int:
        """Unclaimed slots of a single-core hashable universe.

        They are dense ids ``>= len(interner)``, pinned at frequency 0
        because no key owns them, so they all sit in the zero block.
        Queries over such a core subtract them from that block; with
        no phantoms the core answers for the universe unchanged.
        """
        core = self._core
        if core is None:
            return 0
        return core.capacity - len(self._interner)

    def _view(self):
        """The fused-walk adapter, bounded to registered keys on a
        single hashable core; ``None`` for structureless backends."""
        interner = self._interner
        return runs_view_for(
            self._impl,
            self._decode_key if interner is not None else None,
            len(interner) if self._core is not None else None,
        )

    def _registered(self) -> int:
        """Registered key count; raises on an empty universe."""
        size = len(self._interner)
        if size == 0:
            raise EmptyProfileError("no keys registered")
        return size

    def _zero_block(self):
        """The zero block of a core holding phantoms, and the count of
        registered keys inside it.  O(1): the first phantom sits in it,
        so no block walk is needed to find it."""
        core = self._core
        zero = core.blocks.block_at(core._ftot[len(self._interner)])
        return zero, zero.r - zero.l + 1 - self._phantoms()

    def _extreme(self, top: bool) -> ModeResult:
        """Mode (``top``) or least over the registered keys of a core
        holding phantoms.  O(1), or O(#phantoms) to name a registered
        key when the extreme frequency is 0."""
        self._registered()
        blocks = self._core.blocks
        block = blocks.rightmost() if top else blocks.leftmost()
        if block.f == 0:
            count = block.r - block.l + 1 - self._phantoms()
            if count:
                ranks = (
                    range(block.r, block.l - 1, -1) if top
                    else range(block.l, block.r + 1)
                )
                example = self._view().registered(ranks, 1)[0]
                return ModeResult(frequency=0, count=count, example=example)
            block = blocks.block_at(block.l - 1 if top else block.r + 1)
        rank = block.r if top else block.l
        return ModeResult(
            frequency=block.f,
            count=block.r - block.l + 1,
            example=self._interner.external(int(self._core._ttof[rank])),
        )

    def _frequency_at(self, rank: int) -> int:
        """Frequency at ascending rank ``rank`` among the registered
        keys of a core holding phantoms.  O(1)."""
        zero, real = self._zero_block()
        if rank >= zero.l + real:
            rank += self._phantoms()
        elif rank >= zero.l:
            return 0
        return self._core.frequency_at_rank(rank)

    def _delegate_or_fuse(self, name: str, query: Query):
        """Call ``impl.<name>`` when it exists; otherwise answer from
        the fused walk (baselines lack a few of the optional queries
        that the run walk answers uniformly)."""
        method = getattr(self._impl, name, None)
        if method is not None:
            return method(*query.args)
        return self._fuse(query)

    def _fuse(self, query: Query):
        """Answer one query from the fused run walk."""
        view = self._view()
        if view is None:
            raise self._unsupported(query.kind)
        return evaluate_fused(view, (query,), frequency=self.frequency)[0]

    # ------------------------------------------------------------------
    # The query surface
    # ------------------------------------------------------------------

    def frequency(self, obj) -> int:
        """Net count of ``obj``; 0 for never-seen hashable keys.  O(1)."""
        if self._interner is not None:
            dense = self._interner.get(obj)
            if dense is None:
                return 0
            return self._impl.frequency(dense)
        return self._impl.frequency(obj)

    def mode(self) -> ModeResult:
        """Most frequent object(s)."""
        if self._phantoms():
            return self._extreme(True)
        return self._decode_mode(self._impl.mode())

    def least(self) -> ModeResult:
        """Least frequent object(s)."""
        if self._phantoms():
            return self._extreme(False)
        return self._decode_mode(self._impl.least())

    def max_frequency(self) -> int:
        if self._phantoms():
            return self._extreme(True).frequency
        return self._delegate_or_fuse("max_frequency", Query.max_frequency())

    def min_frequency(self) -> int:
        if self._phantoms():
            return self._extreme(False).frequency
        return self._delegate_or_fuse("min_frequency", Query.min_frequency())

    def top_k(self, k: int) -> list[TopEntry]:
        """The ``min(k, m)`` most frequent objects, descending."""
        if not self._phantoms():
            return [self._decode_entry(e) for e in self._impl.top_k(k)]
        if k < 0:
            raise CapacityError(f"k must be >= 0, got {k}")
        out: list[TopEntry] = []
        for run in self._view().iter_runs_desc():
            if len(out) >= k:
                break
            out += [TopEntry(obj, run.f) for obj in run.head(k - len(out))]
        return out

    def bottom_k(self, k: int) -> list[TopEntry]:
        """The ``min(k, m)`` least frequent objects, ascending."""
        impl = self._impl
        bottom = None if self._phantoms() else getattr(impl, "bottom_k", None)
        if bottom is not None:
            return [self._decode_entry(e) for e in bottom(k)]
        if getattr(impl, "iter_sorted", None) is None:
            raise self._unsupported("bottom_k")
        if k < 0:
            raise CapacityError(f"k must be >= 0, got {k}")
        return list(islice(self.iter_sorted(), k))

    def kth_most_frequent(self, k: int) -> TopEntry:
        method = getattr(self._impl, "kth_most_frequent", None)
        if method is None or self._phantoms():
            return self._fuse(Query.kth_most_frequent(k))
        return self._decode_entry(method(k))

    def median_frequency(self) -> int:
        """Lower median of the frequency array."""
        if self._phantoms():
            return self._frequency_at((self._registered() - 1) // 2)
        return self._impl.median_frequency()

    def quantile(self, q: float) -> int:
        """Frequency at quantile ``q``; semantics per
        :func:`~repro.core.queries.quantile_rank`."""
        if self._phantoms():
            return self._frequency_at(quantile_rank(q, self._registered()))
        return self._impl.quantile(q)

    def histogram(self) -> list[tuple[int, int]]:
        """``(frequency, #objects)`` pairs, ascending."""
        histogram = self._impl.histogram()
        phantoms = self._phantoms()
        if not phantoms:
            return histogram
        return [
            (f, count - phantoms) if f == 0 else (f, count)
            for f, count in histogram
            if f or count > phantoms
        ]

    def support(self, f: int) -> int:
        """Number of objects at frequency exactly ``f``."""
        count = self._impl.support(f)
        if f == 0:
            count -= self._phantoms()
        return count

    def heavy_hitters(self, phi: float) -> list[TopEntry]:
        """Objects with frequency strictly above ``phi * total``."""
        # Phantoms sit at 0, never above the (positive) threshold.
        method = getattr(self._impl, "heavy_hitters", None)
        if method is not None:
            return [self._decode_entry(e) for e in method(phi)]
        return self._delegate_or_fuse(
            "heavy_hitters", Query.heavy_hitters(phi)
        )

    def objects_with_frequency(self, f: int, limit: int | None = None):
        """Objects at frequency exactly ``f`` (up to ``limit``)."""
        impl_query = getattr(self._impl, "objects_with_frequency", None)
        if impl_query is None:
            raise self._unsupported("objects_with_frequency")
        if f == 0 and self._phantoms():
            if limit is not None and limit < 0:
                raise CapacityError(f"limit must be >= 0, got {limit}")
            zero, _real = self._zero_block()
            return self._view().registered(range(zero.l, zero.r + 1), limit)
        return [self._decode_key(o) for o in impl_query(f, limit=limit)]

    def majority(self):
        """The object holding more than half the mass, if any."""
        impl_query = getattr(self._impl, "majority", None)
        if impl_query is None:
            raise self._unsupported("majority")
        result = impl_query()
        if result is None or self._interner is None:
            return result
        return self._interner.external(result)

    def frequency_at_rank(self, rank: int) -> int:
        """``T[rank]`` — frequency at ascending sorted position."""
        impl_query = getattr(self._impl, "frequency_at_rank", None)
        if impl_query is None:
            raise self._unsupported("frequency_at_rank")
        if self._phantoms():
            size = len(self._interner)
            if not 0 <= rank < size:
                raise IndexError(f"rank {rank} out of range [0, {size})")
            return self._frequency_at(rank)
        return impl_query(rank)

    def object_at_rank(self, rank: int):
        """The object at ascending sorted position ``rank``."""
        impl_query = getattr(self._impl, "object_at_rank", None)
        if impl_query is None:
            raise self._unsupported("object_at_rank")
        phantoms = self._phantoms()
        if phantoms:
            size = self._registered()
            if not 0 <= rank < size:
                raise CapacityError(f"rank {rank} out of range [0, {size})")
            zero, real = self._zero_block()
            if rank >= zero.l + real:
                rank += phantoms
            elif rank >= zero.l:
                zeros = range(zero.l, zero.r + 1)
                return self._view().registered(zeros, rank - zero.l + 1)[-1]
        return self._decode_key(impl_query(rank))

    def iter_sorted(self) -> Iterator[TopEntry]:
        """Yield ``(object, frequency)`` ascending by frequency."""
        iter_sorted = getattr(self._impl, "iter_sorted", None)
        if iter_sorted is None:
            raise self._unsupported("iter_sorted")
        live = len(self._interner) if self._core is not None else None
        for entry in iter_sorted():
            if live is None or entry.obj < live:
                yield self._decode_entry(entry)

    def frequencies(self) -> list[int]:
        """Materialize the dense frequency array (inspection/tests).

        On a single hashable core, index ``i`` is the key registered
        ``i``-th (:meth:`snapshot` uses the same dense ids)."""
        impl_query = getattr(self._impl, "frequencies", None)
        if impl_query is None:
            raise self._unsupported("frequencies")
        if self._core is not None:
            return impl_query()[: len(self._interner)]
        return impl_query()

    def snapshot(self):
        """Frozen point-in-time copy answering the same queries.

        On a single hashable core the copy covers the registered keys
        only, under their dense ids ``[0, len(self))``.
        """
        impl_query = getattr(self._impl, "snapshot", None)
        if impl_query is None:
            raise self._unsupported("snapshot")
        phantoms = self._phantoms()
        if not phantoms:
            return impl_query()
        core = self._core
        size = len(self._interner)
        runs: list[tuple[int, int, int]] = []
        cursor = 0
        for block in core.blocks.iter_blocks():
            count = block.r - block.l + 1 - (phantoms if block.f == 0 else 0)
            if count:
                runs.append((cursor, cursor + count - 1, block.f))
                cursor += count
        return ProfileSnapshot(
            ttof=[d for d in map(int, core._ttof) if d < size],
            runs=runs,
            total=core.total,
            n_events=core.n_events,
        )

    # ------------------------------------------------------------------
    # The fused multi-query plan
    # ------------------------------------------------------------------

    def evaluate(self, *queries: Query) -> EvalResult:
        """Answer every query in one block walk (see
        :mod:`repro.api.plan`).

        On block-structured backends (flat, exact, sharded) all
        walk-kind queries share a single descending run walk; on
        structureless backends (baselines, approx) each query
        dispatches to its standalone method.  Answers are identical
        either way up to tie order inside equal frequencies.
        """
        plan = normalize_queries(queries)
        self._obs_queries.inc(len(plan))
        view = self._view()
        if view is None:
            values = tuple(self._dispatch(q) for q in plan)
        else:
            # Point queries resolve through the facade so hashable
            # keys translate before reaching the backend.
            values = tuple(
                evaluate_fused(view, plan, frequency=self.frequency)
            )
        return EvalResult(queries=plan, values=values)

    def _dispatch(self, query: Query):
        """Standalone execution of one query (structureless backends)."""
        kind = query.kind
        args = query.args
        if kind == "frequency":
            return self.frequency(*args)
        if kind == "total":
            return self.total
        if kind == "median":
            return self.median_frequency()
        if kind == "active_count":
            return self.active_count
        method = getattr(self, kind)
        return method(*args)

    # ------------------------------------------------------------------
    # Capability introspection
    # ------------------------------------------------------------------

    def supports(self, query: str) -> bool:
        """Does this backend answer ``query`` (a Query kind name)?"""
        if query in ("frequency", "total"):
            return True
        declared = self._impl.SUPPORTED_QUERIES
        if query == "active_count":
            return (
                hasattr(self._impl, "active_count")
                or "support" in declared
            )
        if query == "heavy_hitters":
            return hasattr(self._impl, "heavy_hitters")
        return query in declared

    def describe(self) -> dict[str, Any]:
        """Engine introspection: backend identity plus structure stats.

        Always present: ``backend``, ``keys``, ``strict``,
        ``capacity``, ``total``, ``n_events``, ``batches_ingested``,
        ``events_ingested``.  Block-structured backends add an
        ``engine`` dict — block counts plus allocator state (the
        block-object engine reports its :class:`~repro.core.block.
        BlockPool` free list and bound; the flat engine reports minted
        and free array slots; the sharded engine nests one entry per
        shard core).
        """
        out: dict[str, Any] = {
            "backend": self._backend_name,
            "keys": self._keys,
            "strict": self._strict,
            "capacity": self.capacity,
            "total": self.total,
            "n_events": self.n_events,
            "batches_ingested": self._batches,
            "events_ingested": self._events,
        }
        impl = self._impl
        if isinstance(impl, ShardedProfiler):
            out["engine"] = {
                "kind": "sharded",
                "core": impl.core,
                "n_shards": impl.n_shards,
                "block_count": impl.block_count,
                "shards": [_engine_stats(s) for s in impl.shards],
            }
        elif isinstance(impl, (SProfile, FlatProfile)):
            out["engine"] = _engine_stats(impl)
        return out

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def obs_registry(self):
        """The metrics registry this facade counts into (no-op when
        obs is disabled)."""
        return self._obs

    def metrics_snapshot(self, detail: bool = True) -> dict[str, Any]:
        """Point-in-time obs snapshot for this profiler.

        Refreshes snapshot-time gauges from the engine's exact
        internal counters (``n_adds``/``n_removes`` cost nothing on
        the hot path — they were already maintained), then snapshots
        the registry.  ``{}`` when obs is disabled.
        """
        obs = self._obs
        impl = self._impl
        if obs.enabled:
            n_adds = getattr(impl, "n_adds", None)
            if n_adds is not None:
                obs.gauge("engine.adds").set(int(n_adds))
                obs.gauge("engine.removes").set(int(impl.n_removes))
        return obs.snapshot(detail)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (idempotent).

        Calls the backend's own ``close`` when it has one; the
        built-in backends hold only in-process memory, so for them
        this is a no-op.  The facade is also a context manager::

            with Profiler.open(m) as p:
                p.ingest(batch)
        """
        release = getattr(self._impl, "close", None)
        if release is not None:
            release()

    def __enter__(self) -> "Profiler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def backend(self):
        """The wrapped implementation (full native surface)."""
        return self._impl

    @property
    def backend_name(self) -> str:
        return self._backend_name

    @property
    def keys(self) -> str:
        return self._keys

    @property
    def strict(self) -> bool:
        return self._strict

    @property
    def capacity(self) -> int:
        """Universe size: the declared bound, or for a hashable
        universe opened without one, the registered key count."""
        if self._interner is not None:
            if self._capacity is None:
                return len(self._interner)
            return self._capacity
        return self._impl.capacity

    @property
    def declared_capacity(self) -> int | None:
        """The universe bound a checkpoint restore must keep: ``None``
        for a hashable universe that grows, else :attr:`capacity`."""
        if self._interner is not None and self._capacity is None:
            return None
        return self.capacity

    @property
    def total(self) -> int:
        return self._impl.total

    @property
    def active_count(self) -> int:
        count = getattr(self._impl, "active_count", None)
        if count is not None:
            return count
        if self.supports("support"):
            return self._impl.capacity - self._impl.support(0)
        raise self._unsupported("active_count")

    @property
    def n_events(self) -> int:
        return self._impl.n_events

    @property
    def n_shards(self) -> int:
        return getattr(self._impl, "n_shards", 1)

    @property
    def batches_ingested(self) -> int:
        return self._batches

    @property
    def events_ingested(self) -> int:
        """Raw items submitted to :meth:`ingest` (before coalescing)."""
        return self._events

    def __len__(self) -> int:
        """Tracked objects: dense capacity, or registered hashables."""
        if self._interner is not None:
            return len(self._interner)
        return self._impl.capacity

    def __contains__(self, obj) -> bool:
        if self._interner is not None:
            return obj in self._interner
        return isinstance(obj, int) and 0 <= obj < self._impl.capacity

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        """Full facade state as a JSON-safe dict.

        Supported for the flat, exact, sharded and approx backends;
        baselines do not checkpoint.  A hashable universe adds its
        catalog (keys in registration order); a growable one declares
        ``capacity: null`` and its core may hold phantom slots.
        Approx states are JSON-safe whenever the ingested keys are
        (see :meth:`ApproxProfiler.to_state
        <repro.api.backends.ApproxProfiler.to_state>`).
        """
        impl = self._impl
        if isinstance(impl, (SProfile, FlatProfile)):
            payload: Any = profile_to_state(impl)
        elif isinstance(impl, ShardedProfiler):
            payload = [profile_to_state(shard) for shard in impl.shards]
        elif isinstance(impl, ApproxProfiler):
            payload = impl.to_state()
        else:
            raise CheckpointError(
                f"backend {self._backend_name!r} does not support "
                f"checkpointing"
            )
        catalog = None
        if self._interner is not None:
            catalog = list(self._interner)
        state = {
            "version": API_STATE_VERSION,
            "backend": self._backend_name,
            "keys": self._keys,
            "strict": self._strict,
            "capacity": self._capacity,
            "shards": getattr(impl, "n_shards", None),
            "catalog": catalog,
            "batches": self._batches,
            "events": self._events,
            "profile": payload,
        }
        if isinstance(impl, ShardedProfiler):
            # Restore shards onto the same core engine; absent in
            # pre-flat checkpoints, which load as block-object cores.
            state["core"] = impl.core
        return state

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "Profiler":
        """Rebuild a facade from :meth:`to_state` output (audited)."""
        if not isinstance(state, dict):
            raise CheckpointError(
                f"state must be a dict, got {type(state).__name__}"
            )
        missing = {
            "version",
            "backend",
            "keys",
            "strict",
            "capacity",
            "shards",
            "catalog",
            "batches",
            "events",
            "profile",
        } - state.keys()
        if missing:
            raise CheckpointError(f"state is missing keys: {sorted(missing)}")
        if state["version"] != API_STATE_VERSION:
            raise CheckpointError(
                f"state version {state['version']} unsupported "
                f"(expected {API_STATE_VERSION})"
            )
        backend = state["backend"]
        keys = state["keys"]
        strict = state["strict"]
        capacity = state["capacity"]
        catalog = state["catalog"]
        batches = state["batches"]
        events = state["events"]
        if keys not in _KEY_MODES:
            raise CheckpointError(f"bad keys mode: {keys!r}")
        if not isinstance(strict, bool):
            raise CheckpointError(f"bad strict flag: {strict!r}")
        sharded = backend in ("sharded", "parallel")
        if not sharded and state["shards"] is not None:
            raise CheckpointError(
                f"shards must be null off the sharded backend, "
                f"got {state['shards']!r}"
            )
        if not _is_count(batches):
            raise CheckpointError(f"bad batches counter: {batches!r}")
        if not _is_count(events):
            raise CheckpointError(f"bad events counter: {events!r}")
        # These backends declare the universe their cores must match;
        # a hashable single core may declare none (it grows).
        single = backend in ("flat", "exact")
        growable = single and keys == "hashable" and capacity is None
        if (sharded or single) and not (growable or _is_count(capacity)):
            raise CheckpointError(f"bad capacity: {capacity!r}")

        if keys == "dense" and catalog is not None:
            raise CheckpointError("dense-key checkpoint carries a catalog")
        if keys == "hashable" and catalog is None and backend != "approx":
            raise CheckpointError("hashable checkpoint lacks a catalog")
        interner = None
        if catalog is not None:
            if not isinstance(catalog, list):
                raise CheckpointError(
                    f"catalog must be a list, got {type(catalog).__name__}"
                )
            interner = ObjectInterner()
            try:
                for obj in catalog:
                    interner.intern(_detuple(obj))
            except TypeError as exc:
                raise CheckpointError(f"bad catalog key: {exc}") from exc
            if len(interner) != len(catalog):
                raise CheckpointError("catalog contains duplicate keys")
            if isinstance(capacity, int) and len(interner) > capacity:
                raise CheckpointError(
                    f"catalog holds {len(interner)} keys but capacity "
                    f"is {capacity}"
                )

        if single:
            if backend == "flat":
                impl: Any = flat_profile_from_state(state["profile"])
            else:
                impl = profile_from_state(state["profile"])
            if growable:
                if impl.capacity < len(interner):
                    raise CheckpointError(
                        f"profile capacity {impl.capacity} is smaller "
                        f"than the catalog ({len(interner)} keys)"
                    )
            elif impl.capacity != capacity:
                raise CheckpointError(
                    f"profile capacity {impl.capacity} does not match "
                    f"declared capacity {capacity}"
                )
            if impl.allow_negative == strict:
                raise CheckpointError(
                    "strict flag disagrees with profile allow_negative"
                )
            if keys == "hashable":
                # The catalog names the claimed dense slots; the rest
                # are phantoms and must hold no counted mass (mirror
                # of the sharded-hashable check).
                for dense in range(len(interner), impl.capacity):
                    if impl.frequency(dense) != 0:
                        raise CheckpointError(
                            f"uncataloged slot {dense} holds non-zero "
                            f"frequency"
                        )
        elif sharded:
            shard_states = state["profile"]
            n_shards = state["shards"]
            if not _is_count(n_shards) or n_shards == 0:
                raise CheckpointError(f"bad n_shards: {n_shards!r}")
            if not isinstance(shard_states, list):
                raise CheckpointError("sharded state must hold a list")
            if len(shard_states) != n_shards:
                raise CheckpointError(
                    f"{len(shard_states)} shard states for "
                    f"n_shards={n_shards}"
                )
            core = state.get("core", "sprofile")
            if backend == "parallel":
                # Checkpoints of the retired multi-process engine hold
                # flat shard states; they restore into the sharded
                # engine, which answers identically.
                if core != "flat":
                    raise CheckpointError(
                        f"parallel checkpoints host flat cores, "
                        f"got {core!r}"
                    )
                backend = "sharded"
            if core not in ("sprofile", "flat"):
                raise CheckpointError(f"bad shard core: {core!r}")
            restore = (
                flat_profile_from_state if core == "flat"
                else profile_from_state
            )
            shards = tuple(restore(s) for s in shard_states)
            for s, shard in enumerate(shards):
                expected = (capacity - s + n_shards - 1) // n_shards
                if shard.capacity != expected:
                    raise CheckpointError(
                        f"shard {s} capacity {shard.capacity} does "
                        f"not match partition of universe {capacity}"
                    )
                if shard.allow_negative == strict:
                    raise CheckpointError(
                        "strict flag disagrees with shard allow_negative"
                    )
            impl = ShardedProfiler(0, n_shards=n_shards, core=core)
            impl._m = capacity
            impl._shards = shards
            if interner is not None:
                # Dense slots beyond the catalog have no name; a
                # truncated or tampered catalog must not leave counted
                # mass on anonymous slots.
                for dense in range(len(interner), capacity):
                    if impl.frequency(dense) != 0:
                        raise CheckpointError(
                            f"uncataloged slot {dense} holds non-zero "
                            f"frequency"
                        )
        elif backend == "approx":
            impl = ApproxProfiler.from_state(state["profile"])
            interner = None
        else:
            raise CheckpointError(
                f"backend {backend!r} does not support checkpointing"
            )

        profiler = cls(
            impl,
            backend_name=backend,
            keys=keys,
            strict=strict,
            interner=interner,
            capacity=capacity,
        )
        profiler._batches = batches
        profiler._events = events
        return profiler

    def save(self, path: str | Path) -> None:
        """Write the facade checkpoint to ``path`` as JSON."""
        Path(path).write_text(
            json.dumps(self.to_state(), separators=(",", ":"))
        )

    @classmethod
    def load(cls, path: str | Path) -> "Profiler":
        """Load a checkpoint previously written by :meth:`save`."""
        try:
            state = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint is not valid JSON: {exc}"
            ) from exc
        return cls.from_state(state)

    def __repr__(self) -> str:
        return (
            f"Profiler(backend={self._backend_name!r}, keys={self._keys!r}, "
            f"capacity={self.capacity}, total={self.total}, "
            f"batches={self._batches})"
        )
