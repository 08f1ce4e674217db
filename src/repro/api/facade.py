"""The unified profiler facade: one front door, any backend.

:class:`Profiler` is the documented way into the package.  It replaces
the choose-an-implementation-first surfaces (``SProfile``,
``DynamicProfiler``, ``ShardedProfiler``) with a single factory::

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

Hashable keys ride the same surface:

>>> likes = Profiler.open(keys="hashable")
>>> likes.ingest([("ada", +2), ("bob", +1)])
3
>>> likes.top_k(1)
[TopEntry(obj='ada', frequency=2)]
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Hashable, Iterator

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
from repro.core.dynamic import DynamicProfiler
from repro.core.flat import FlatProfile
from repro.core.interner import ObjectInterner
from repro.core.profile import (
    SProfile,
    net_arrays,
    net_deltas,
    net_deltas_arrays,
)
from repro.core.queries import ModeResult, TopEntry
from repro.engine.sharding import ShardedProfiler
from repro.errors import (
    CapacityError,
    CheckpointError,
    FrequencyUnderflowError,
    UnsupportedQueryError,
)
from repro.obs.registry import resolve_registry
from repro.streams.events import Action, Event

__all__ = ["API_STATE_VERSION", "Profiler"]

#: Bump when the facade checkpoint layout changes incompatibly.
API_STATE_VERSION = 1

_KEY_MODES = ("dense", "hashable")


def _is_count(value: Any) -> bool:
    """Whether a checkpoint field is a plain non-negative int."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) and value >= 0


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
      the paper's structures require;
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
        self._strict = strict
        self._interner = interner
        self._capacity = capacity
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
            Universe size ``m``.  Required for dense keys; optional for
            ``backend="exact", keys="hashable"`` (the universe grows)
            and ``backend="approx"`` (sketches are sublinear).
        backend:
            ``"auto"`` (sharded when ``shards`` is given, the flat
            struct-of-arrays engine for dense keys, block-object exact
            otherwise), ``"flat"``, ``"exact"``, ``"sharded"``,
            ``"approx"`` or any name from
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
            payload = self._encode_interned(deltas)
        else:
            payload = deltas
        n = self._impl.apply(payload)
        self._batches += 1
        self._events += len(deltas)
        self._obs_batches.inc()
        self._obs_events.inc(len(deltas))
        return n

    def ingest_arrays(self, ids, deltas) -> int:
        """Apply one batch given as parallel integer arrays.

        The dense-key fast path of the binary wire protocol: ``ids``
        and ``deltas`` arrive as (NumPy) int64 arrays, coalescing
        happens vectorized (:func:`~repro.core.profile.
        net_deltas_arrays` — one ``unique`` + scatter-add instead of a
        per-event dict loop), and the net map feeds the same backend
        ``apply`` as :meth:`ingest` — identical batch semantics
        (all-or-nothing, strict-mode checks, same return value), zero
        per-event Python objects before the engine.

        Dense key mode only: hashable keys cannot ride raw integer
        arrays (use :meth:`ingest`).
        """
        if self._keys != "dense":
            raise CapacityError(
                "ingest_arrays() requires dense keys; hashable keys "
                "take the ingest() vocabulary"
            )
        apply_arrays = getattr(self._impl, "apply_arrays", None)
        if apply_arrays is not None:
            keys, sums = net_arrays(ids, deltas)
            n = apply_arrays(keys, sums)
        else:
            net = net_deltas_arrays(ids, deltas)
            n = self._impl.apply(net)
        self._batches += 1
        self._events += len(ids)
        self._obs_batches.inc()
        self._obs_events.inc(len(ids))
        return n

    def register(self, obj: Hashable) -> None:
        """Ensure ``obj`` is tracked (frequency 0 if new).

        Hashable keys only; dense universes are fully materialized.
        """
        if self._keys != "hashable":
            raise CapacityError(
                "register() applies to hashable keys; dense ids are "
                "always tracked"
            )
        if self._interner is not None:
            self._intern_new(obj)
        else:
            self._impl.register(obj)

    def _intern_new(self, obj: Hashable) -> int:
        interner = self._interner
        dense = interner.get(obj)
        if dense is None:
            if len(interner) >= (self._capacity or 0):
                raise CapacityError(
                    f"universe is full ({self._capacity} keys); cannot "
                    f"register {obj!r}"
                )
            dense = interner.intern(obj)
        return dense

    def _encode_interned(self, deltas) -> dict[int, int]:
        """Net, validate and dense-encode deltas for an interned backend.

        All-or-nothing: capacity overflow and strict-mode underflows
        (on known *and* never-seen keys) raise before anything is
        registered or mutated.
        """
        net = net_deltas(deltas)
        interner = self._interner
        get = interner.get
        fresh = []
        for obj, d in net.items():
            if d == 0:
                continue
            if get(obj) is None:
                if self._strict and d < 0:
                    raise FrequencyUnderflowError(
                        f"cannot remove never-seen object {obj!r} in "
                        f"strict mode"
                    )
                fresh.append(obj)
        if len(interner) + len(fresh) > (self._capacity or 0):
            raise CapacityError(
                f"batch registers {len(fresh)} new keys but only "
                f"{(self._capacity or 0) - len(interner)} slots remain "
                f"of {self._capacity}"
            )
        if self._strict:
            impl = self._impl
            for obj, d in net.items():
                if d >= 0:
                    continue
                dense = get(obj)
                if dense is not None and impl.frequency(dense) + d < 0:
                    raise FrequencyUnderflowError(
                        f"removing object {obj!r} at frequency "
                        f"{impl.frequency(dense)} {-d} times (net) would "
                        f"go negative"
                    )
        encoded: dict[int, int] = {}
        for obj, d in net.items():
            if d == 0:
                continue
            encoded[self._intern_new(obj)] = d
        return encoded

    # ------------------------------------------------------------------
    # Key translation helpers
    # ------------------------------------------------------------------

    def _encode_key(self, obj):
        if self._interner is None:
            return obj
        return self._interner.get(obj)

    def _decode_key(self, dense):
        """External name of a dense id.

        Interned universes are fixed at ``capacity``; a slot no key has
        claimed yet still exists at frequency 0 and reports its dense
        id (it has no external name until something registers it).
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

    def _delegate_or_fuse(self, name: str, query: Query):
        """Call ``impl.<name>`` when it exists; otherwise answer from
        the fused walk (DynamicProfiler lacks a few of the optional
        queries that the run walk answers uniformly)."""
        method = getattr(self._impl, name, None)
        if method is not None:
            return method(*query.args)
        view = runs_view_for(
            self._impl,
            self._decode_key if self._interner is not None else None,
        )
        if view is None:
            raise self._unsupported(name)
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
        return self._decode_mode(self._impl.mode())

    def least(self) -> ModeResult:
        """Least frequent object(s)."""
        return self._decode_mode(self._impl.least())

    def max_frequency(self) -> int:
        return self._delegate_or_fuse("max_frequency", Query.max_frequency())

    def min_frequency(self) -> int:
        return self._delegate_or_fuse("min_frequency", Query.min_frequency())

    def top_k(self, k: int) -> list[TopEntry]:
        """The ``min(k, m)`` most frequent objects, descending."""
        return [self._decode_entry(e) for e in self._impl.top_k(k)]

    def bottom_k(self, k: int) -> list[TopEntry]:
        """The ``min(k, m)`` least frequent objects, ascending."""
        impl = self._impl
        bottom = getattr(impl, "bottom_k", None)
        if bottom is not None:
            return [self._decode_entry(e) for e in bottom(k)]
        iter_sorted = getattr(impl, "iter_sorted", None)
        if iter_sorted is None:
            raise self._unsupported("bottom_k")
        if k < 0:
            raise CapacityError(f"k must be >= 0, got {k}")
        out = []
        for entry in iter_sorted():
            if len(out) >= k:
                break
            out.append(self._decode_entry(entry))
        return out

    def kth_most_frequent(self, k: int) -> TopEntry:
        method = getattr(self._impl, "kth_most_frequent", None)
        if method is not None:
            return self._decode_entry(method(k))
        return self._delegate_or_fuse(
            "kth_most_frequent", Query.kth_most_frequent(k)
        )

    def median_frequency(self) -> int:
        """Lower median of the frequency array."""
        return self._impl.median_frequency()

    def quantile(self, q: float) -> int:
        """Frequency at quantile ``q``; semantics per
        :func:`~repro.core.queries.quantile_rank`."""
        return self._impl.quantile(q)

    def histogram(self) -> list[tuple[int, int]]:
        """``(frequency, #objects)`` pairs, ascending."""
        return self._impl.histogram()

    def support(self, f: int) -> int:
        """Number of objects at frequency exactly ``f``."""
        return self._impl.support(f)

    def heavy_hitters(self, phi: float) -> list[TopEntry]:
        """Objects with frequency strictly above ``phi * total``."""
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
        return impl_query(rank)

    def object_at_rank(self, rank: int):
        """The object at ascending sorted position ``rank``."""
        impl_query = getattr(self._impl, "object_at_rank", None)
        if impl_query is None:
            raise self._unsupported("object_at_rank")
        return self._decode_key(impl_query(rank))

    def iter_sorted(self) -> Iterator[TopEntry]:
        """Yield ``(object, frequency)`` ascending by frequency."""
        impl = self._impl
        if isinstance(impl, DynamicProfiler):
            for obj, f in impl.items():
                yield TopEntry(obj, f)
            return
        iter_sorted = getattr(impl, "iter_sorted", None)
        if iter_sorted is None:
            raise self._unsupported("iter_sorted")
        for entry in iter_sorted():
            yield self._decode_entry(entry)

    def frequencies(self) -> list[int]:
        """Materialize the dense frequency array (inspection/tests)."""
        impl_query = getattr(self._impl, "frequencies", None)
        if impl_query is None:
            raise self._unsupported("frequencies")
        return impl_query()

    def snapshot(self):
        """Frozen point-in-time copy answering the same queries."""
        impl_query = getattr(self._impl, "snapshot", None)
        if impl_query is None:
            raise self._unsupported("snapshot")
        return impl_query()

    # ------------------------------------------------------------------
    # The fused multi-query plan
    # ------------------------------------------------------------------

    def evaluate(self, *queries: Query) -> EvalResult:
        """Answer every query in one block walk (see
        :mod:`repro.api.plan`).

        On block-structured backends (exact, sharded, hashable-exact)
        all walk-kind queries share a single descending run walk; on
        structureless backends (baselines, approx) each query
        dispatches to its standalone method.  Answers are identical
        either way up to tie order inside equal frequencies.
        """
        plan = normalize_queries(queries)
        self._obs_queries.inc(len(plan))
        view = runs_view_for(
            self._impl,
            self._decode_key if self._interner is not None else None,
        )
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
        declared = getattr(self._impl, "SUPPORTED_QUERIES", None)
        if declared is None:
            # DynamicProfiler answers the full exact surface.
            return True
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
        if isinstance(impl, DynamicProfiler):
            out["engine"] = {
                "kind": "dynamic",
                "physical_capacity": impl.physical_capacity,
                "phantom_slots": impl.phantom_count,
                "inner": _engine_stats(impl.profile),
            }
        elif isinstance(impl, ShardedProfiler):
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
        """Logical universe size (registered keys for hashable mode)."""
        if self._interner is not None:
            return self._capacity or 0
        return self._impl.capacity

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
        if isinstance(self._impl, DynamicProfiler):
            return len(self._impl)
        return self._impl.capacity

    def __contains__(self, obj) -> bool:
        if self._interner is not None:
            return obj in self._interner
        if isinstance(self._impl, DynamicProfiler):
            return obj in self._impl
        return isinstance(obj, int) and 0 <= obj < self._impl.capacity

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        """Full facade state as a JSON-safe dict.

        Supported for the exact (dense and hashable), flat, sharded
        and approx backends; baselines do not checkpoint.
        Approx states are JSON-safe whenever the ingested keys are
        (see :meth:`ApproxProfiler.to_state
        <repro.api.backends.ApproxProfiler.to_state>`).
        """
        impl = self._impl
        if isinstance(impl, (SProfile, FlatProfile)):
            payload: Any = profile_to_state(impl)
        elif isinstance(impl, ShardedProfiler):
            payload = [profile_to_state(shard) for shard in impl.shards]
        elif isinstance(impl, DynamicProfiler):
            payload = profile_to_state(impl.profile)
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
        elif isinstance(impl, DynamicProfiler):
            catalog = list(impl._interner)
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
        strict = bool(state["strict"])
        capacity = state["capacity"]
        catalog = state["catalog"]
        batches = state["batches"]
        events = state["events"]
        if keys not in _KEY_MODES:
            raise CheckpointError(f"bad keys mode: {keys!r}")
        if not _is_count(batches):
            raise CheckpointError(f"bad batches counter: {batches!r}")
        if not _is_count(events):
            raise CheckpointError(f"bad events counter: {events!r}")
        # These backends have a fixed universe their cores must match.
        fixed = backend in ("flat", "sharded", "parallel") or (
            backend == "exact" and keys == "dense"
        )
        if fixed and not _is_count(capacity):
            raise CheckpointError(f"bad capacity: {capacity!r}")

        interner = None
        if catalog is not None:
            if not isinstance(catalog, list):
                raise CheckpointError(
                    f"catalog must be a list, got {type(catalog).__name__}"
                )
            interner = ObjectInterner()
            try:
                for obj in catalog:
                    interner.intern(obj)
            except TypeError as exc:
                raise CheckpointError(f"bad catalog key: {exc}") from exc
            if len(interner) != len(catalog):
                raise CheckpointError("catalog contains duplicate keys")
            if isinstance(capacity, int) and len(interner) > capacity:
                raise CheckpointError(
                    f"catalog holds {len(interner)} keys but capacity "
                    f"is {capacity}"
                )

        if backend == "flat" or (backend == "exact" and keys == "dense"):
            if backend == "flat":
                impl: Any = flat_profile_from_state(state["profile"])
            else:
                impl = profile_from_state(state["profile"])
            if impl.capacity != capacity:
                raise CheckpointError(
                    f"profile capacity {impl.capacity} does not match "
                    f"declared capacity {capacity}"
                )
            if impl.allow_negative == strict:
                raise CheckpointError(
                    "strict flag disagrees with profile allow_negative"
                )
            if keys == "dense":
                interner = None
            else:
                # Facade-interned flat universe: the catalog names the
                # claimed dense slots; unclaimed slots must hold no
                # counted mass (mirror of the sharded-hashable check).
                if interner is None:
                    raise CheckpointError(
                        "hashable checkpoint lacks a catalog"
                    )
                for dense in range(len(interner), capacity):
                    if impl.frequency(dense) != 0:
                        raise CheckpointError(
                            f"uncataloged slot {dense} holds non-zero "
                            f"frequency"
                        )
        elif backend == "exact" and keys == "hashable":
            if interner is None:
                raise CheckpointError("hashable checkpoint lacks a catalog")
            inner = profile_from_state(state["profile"])
            if inner.capacity < len(interner):
                raise CheckpointError(
                    f"profile capacity {inner.capacity} smaller than "
                    f"catalog size {len(interner)}"
                )
            for dense in range(len(interner), inner.capacity):
                if inner.frequency(dense) != 0:
                    raise CheckpointError(
                        f"phantom slot {dense} holds non-zero frequency"
                    )
            impl = DynamicProfiler.__new__(DynamicProfiler)
            impl._interner = interner
            impl._profile = inner
            impl._rebind()
            interner = None
        elif backend in ("sharded", "parallel"):
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
            if keys == "dense":
                interner = None
            elif interner is not None:
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
