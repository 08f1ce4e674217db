"""Backend selection and run-walk adapters for the unified facade.

Three kinds of machinery live here:

- :func:`build_backend` — one switchboard resolving a backend name
  (``"auto"``, ``"exact"``, ``"sharded"``, ``"approx"`` or any
  :mod:`repro.baselines.registry` name) plus a key mode to a concrete
  implementation, the way the paper's profile and the space-optimal
  sketch estimators of Chen–Indyk–Woodruff are interchangeable behind
  one contract;
- the ``*RunsView`` adapters — each presents its backend's block
  structure as the merged descending run walk
  :func:`repro.api.plan.evaluate_fused` consumes, visiting every
  underlying :class:`~repro.core.blockset.BlockSet` exactly once;
- :class:`ApproxProfiler` — the sublinear-space backend: a Count-Min
  sketch for point estimates plus a SpaceSaving summary for ranked
  queries, add-only, with explicit error bounds.
"""

from __future__ import annotations

from functools import partial
from heapq import merge as _heap_merge
from typing import Hashable, Iterator

from repro.api.plan import Run
from repro.baselines.registry import available_profilers, make_profiler
from repro.core.flat import FlatProfile
from repro.core.profile import SProfile, net_deltas
from repro.core.queries import ModeResult, TopEntry
from repro.engine.sharding import ShardedProfiler
from repro.errors import (
    CapacityError,
    EmptyProfileError,
    UnsupportedQueryError,
)

__all__ = [
    "ApproxProfiler",
    "available_backends",
    "build_backend",
    "resolve_backend",
    "runs_view_for",
]

#: Facade-level backend names (registry baseline names add to these).
_BUILTIN_BACKENDS = ("auto", "flat", "exact", "sharded", "approx")


def available_backends() -> tuple[str, ...]:
    """Every name ``Profiler.open(backend=...)`` accepts."""
    return _BUILTIN_BACKENDS + available_profilers()


def resolve_backend(
    backend: str,
    keys: str,
    shards,
    track_freq_index: bool = False,
    capacity=None,
) -> str:
    """Collapse ``"auto"`` to a concrete backend name.

    ``auto`` picks the sharded engine when a shard fan-out is given;
    otherwise the flat struct-of-arrays engine, for dense and hashable
    keys alike, at any ``capacity`` (the fastest exact single-core
    path; see ``BENCH_core.json``); and the block-object exact engine
    when ``track_freq_index`` asks for the O(1) frequency->block index
    only that engine maintains.
    """
    if backend != "auto":
        return backend
    if shards is not None:
        return "sharded"
    if not track_freq_index:
        return "flat"
    return "exact"


def build_backend(
    backend: str,
    capacity,
    *,
    keys: str,
    strict: bool,
    shards,
    track_freq_index: bool = False,
    **options,
):
    """Construct the implementation behind a resolved backend name.

    Returns ``(impl, facade_interned)`` — the second flag tells the
    facade it must own an :class:`~repro.core.interner.ObjectInterner`
    (hashable keys over a dense-id implementation).  A hashable
    universe on the ``flat`` or ``exact`` core may omit the capacity:
    its core then starts empty and the facade grows it on demand.
    """
    name = resolve_backend(backend, keys, shards, track_freq_index, capacity)
    if shards is not None and name != "sharded":
        raise CapacityError(
            f"shards= only applies to the sharded backend, not {name!r}"
        )
    allow_negative = not strict
    array_engine = options.pop("array_engine", None)
    if array_engine is not None and name != "flat":
        raise CapacityError(
            f"array_engine= only applies to the flat backend, not {name!r}"
        )

    if name == "approx":
        # Sketches take hashable keys natively and need no capacity;
        # strictness is inherent (the backend is add-only).
        return ApproxProfiler(**options), False
    if options:
        raise CapacityError(
            f"unknown options for backend {name!r}: {sorted(options)}"
        )

    growable = keys == "hashable" and name in ("flat", "exact")
    if capacity is None:
        if not growable:
            raise CapacityError(
                f"backend {name!r} with {keys!r} keys requires a capacity"
            )
        capacity = 0
    if name == "flat":
        if track_freq_index:
            raise CapacityError(
                "the flat backend keeps no frequency index; use "
                "backend='exact' with track_freq_index=True"
            )
        return (
            FlatProfile(
                capacity,
                allow_negative=allow_negative,
                array_engine=bool(array_engine),
            ),
            keys == "hashable",
        )
    if name == "exact":
        return (
            SProfile(
                capacity,
                allow_negative=allow_negative,
                track_freq_index=track_freq_index,
            ),
            keys == "hashable",
        )
    if name == "sharded":
        return (
            ShardedProfiler(
                capacity,
                n_shards=shards if shards is not None else 4,
                allow_negative=allow_negative,
                track_freq_index=track_freq_index,
                core="flat" if not track_freq_index else "sprofile",
            ),
            keys == "hashable",
        )
    if name in available_profilers():
        return (
            make_profiler(name, capacity, allow_negative=allow_negative),
            keys == "hashable",
        )
    raise CapacityError(
        f"unknown backend {name!r}; choose from {available_backends()}"
    )


# ----------------------------------------------------------------------
# Run-walk adapters
# ----------------------------------------------------------------------


class _ProfileRunsView:
    """Descending run walk over a single dense-id profile.

    Serves both block-structured cores — :class:`SProfile` (block
    objects) and :class:`FlatProfile` (struct-of-arrays) — through the
    shared ``_ttof`` + ``blocks`` read contract.

    ``live`` bounds the walk to dense ids ``[0, live)`` — the keys a
    hashable universe has registered.  The core's other slots are
    phantoms pinned at frequency 0, so they all sit in the zero run:
    the walk subtracts them from that run's count and skips them when
    naming its objects.
    """

    __slots__ = ("_p", "_decode", "_live")

    def __init__(
        self, profile: SProfile | FlatProfile, decode=None, live=None
    ) -> None:
        self._p = profile
        self._decode = decode
        self._live = profile.capacity if live is None else live

    @property
    def size(self) -> int:
        return self._live

    @property
    def total(self) -> int:
        return self._p.total

    def frequency(self, obj) -> int:
        return self._p.frequency(obj)

    def iter_runs_desc(self) -> Iterator[Run]:
        ttof = self._p._ttof
        decode = self._decode
        phantoms = self._p.capacity - self._live
        for block in self._p.blocks.iter_blocks_desc():
            l, r, f = block.l, block.r, block.f
            if f == 0 and phantoms:
                count = r - l + 1 - phantoms
                if count:
                    yield Run(
                        0,
                        count,
                        partial(self.registered, range(r, l - 1, -1)),
                        partial(self.registered, range(l, r + 1)),
                    )
                continue

            def head(limit, l=l, r=r):
                stop = l - 1 if limit is None else max(l - 1, r - limit)
                objs = [int(ttof[rank]) for rank in range(r, stop, -1)]
                return [decode(o) for o in objs] if decode else objs

            def tail(limit, l=l, r=r):
                stop = r + 1 if limit is None else min(r + 1, l + limit)
                objs = ttof[l:stop]
                # ndarray slice (array-engine profiles) -> int list.
                if hasattr(objs, "tolist"):
                    objs = objs.tolist()
                return [decode(o) for o in objs] if decode else objs

            yield Run(f, r - l + 1, head, tail)

    def registered(self, ranks, limit=None) -> list:
        """The registered objects at ``ranks``, in order, up to
        ``limit`` (phantoms skipped)."""
        ttof = self._p._ttof
        live = self._live
        decode = self._decode
        out = []
        if limit == 0:
            return out
        for rank in ranks:
            dense = int(ttof[rank])
            if dense < live:
                out.append(decode(dense) if decode else dense)
                if len(out) == limit:
                    break
        return out


class _ShardedRunsView:
    """Merged descending run walk over a :class:`ShardedProfiler`.

    Per-shard block walks are heap-merged by ``(-f, shard)`` and equal
    frequencies grouped into one run, so the whole walk touches each
    shard's block set exactly once — O(n_shards + total blocks), the
    same bound as one merged histogram.  Object enumeration follows
    shard order inside a run, matching the tie order of the profiler's
    own ``top_k`` heap merge.
    """

    __slots__ = ("_p", "_decode")

    def __init__(self, profiler: ShardedProfiler, decode=None) -> None:
        self._p = profiler
        self._decode = decode

    @property
    def size(self) -> int:
        return self._p.capacity

    @property
    def total(self) -> int:
        return self._p.total

    def frequency(self, obj) -> int:
        return self._p.frequency(obj)

    def _shard_runs(self, s: int, shard: SProfile):
        for block in shard.blocks.iter_blocks_desc():
            yield (-block.f, s, block, shard)

    def iter_runs_desc(self) -> Iterator[Run]:
        p = self._p
        n_shards = p.n_shards
        decode = self._decode
        streams = [
            self._shard_runs(s, shard)
            for s, shard in enumerate(p.shards)
            if shard.capacity
        ]
        merged = _heap_merge(*streams)
        pending = None  # (f, [(s, shard, block), ...])
        for neg_f, s, block, shard in merged:
            f = -neg_f
            if pending is None or pending[0] != f:
                if pending is not None:
                    yield self._make_run(pending, n_shards, decode)
                pending = (f, [(s, shard, block)])
            else:
                pending[1].append((s, shard, block))
        if pending is not None:
            yield self._make_run(pending, n_shards, decode)

    @staticmethod
    def _make_run(pending, n_shards: int, decode) -> Run:
        f, contributors = pending
        count = sum(
            block.r - block.l + 1 for _, _, block in contributors
        )

        def head(limit):
            out = []
            for s, shard, block in contributors:
                ttof = shard._ttof
                for rank in range(block.r, block.l - 1, -1):
                    obj = int(ttof[rank]) * n_shards + s
                    out.append(decode(obj) if decode else obj)
                    if limit is not None and len(out) == limit:
                        return out
            return out

        def tail(limit):
            out = []
            for s, shard, block in contributors:
                ttof = shard._ttof
                for rank in range(block.l, block.r + 1):
                    obj = int(ttof[rank]) * n_shards + s
                    out.append(decode(obj) if decode else obj)
                    if limit is not None and len(out) == limit:
                        return out
            return out

        return Run(f, count, head, tail)


def runs_view_for(impl, decode=None, live=None):
    """The fused-walk adapter for ``impl``, or ``None`` if it has no
    block structure to walk (baselines, sketches).  ``live`` bounds a
    single core to its registered dense ids (see
    :class:`_ProfileRunsView`)."""
    if isinstance(impl, (SProfile, FlatProfile)):
        return _ProfileRunsView(impl, decode, live)
    if isinstance(impl, ShardedProfiler):
        return _ShardedRunsView(impl, decode)
    return None


# ----------------------------------------------------------------------
# Approximate backend
# ----------------------------------------------------------------------


class ApproxProfiler:
    """Sublinear-space backend: Count-Min estimates + SpaceSaving ranks.

    Add-only (sketch summaries cannot un-count evictions); a batch with
    net-negative deltas is rejected before anything is counted.
    Guarantees, for ``N`` ingested events:

    - ``frequency(x)`` never underestimates and overestimates by at
      most ``eps * N`` with probability ``1 - delta``;
    - every true phi-heavy hitter appears in ``heavy_hitters(phi)``
      when ``counters >= 1/phi``;
    - ``top_k``/``mode`` estimates overestimate by at most
      ``N / counters``.

    Parameters
    ----------
    counters:
        SpaceSaving monitor slots (the ``k`` of the sketch paper).
    eps / delta:
        Count-Min additive-error target: error ``<= eps * N`` with
        probability ``>= 1 - delta``.
    seed:
        Hash-family seed (fixed default for reproducibility).
    """

    name = "approx"
    SUPPORTED_QUERIES = frozenset(
        {"frequency", "mode", "top_k", "heavy_hitters"}
    )

    def __init__(
        self,
        *,
        counters: int = 256,
        eps: float = 0.001,
        delta: float = 1e-4,
        seed: int | None = 0,
    ) -> None:
        # Imported lazily so the exact backends never pay the numpy
        # import; the sketch is the only numpy consumer in the facade.
        from repro.approx.countmin import CountMinSketch
        from repro.approx.spacesaving import SpaceSaving

        if counters <= 0:
            raise CapacityError(f"counters must be positive, got {counters}")
        self._sketch = CountMinSketch.from_error(eps, delta, seed=seed)
        self._summary = SpaceSaving(counters)
        self._counters = counters
        self._n_adds = 0
        self._bind_obs(None)

    def _bind_obs(self, obs) -> None:
        """Bind the observed-error gauges (see ``_refresh_obs``)."""
        from repro.obs.registry import resolve_registry

        self._obs = resolve_registry(obs)
        self._obs_error_bound = self._obs.gauge(
            "approx.countmin.error_bound"
        )
        self._obs_eps = self._obs.gauge("approx.countmin.eps_estimate")
        self._obs_overcount = self._obs.gauge(
            "approx.spacesaving.max_overcount"
        )

    def _refresh_obs(self) -> None:
        """Publish the sketches' *observed* error state.

        ``error_bound`` is the Count-Min additive bound at the current
        stream length (``~eps * N``); ``eps_estimate`` is that bound
        normalized by ``N`` — the epsilon this width actually
        delivers; ``max_overcount`` is SpaceSaving's realized
        worst-case inflation.  Together they seed the ROADMAP's
        accuracy-trajectory item: error is scrapeable live, not only a
        committed bench artifact.
        """
        bound = self._sketch.error_bound()
        self._obs_error_bound.set(round(bound, 6))
        n = self._n_adds
        self._obs_eps.set(round(bound / n, 9) if n else 0.0)
        self._obs_overcount.set(self._summary.max_overcount())

    # -- ingestion -----------------------------------------------------

    def apply(self, deltas) -> int:
        """Apply coalesced deltas; every net delta must be >= 0."""
        net = net_deltas(deltas)
        for obj, d in net.items():
            if d < 0:
                raise CapacityError(
                    f"approx backend is add-only; got net delta {d} "
                    f"for {obj!r}"
                )
        n = 0
        summary_add = self._summary.add
        for obj, d in net.items():
            if d == 0:
                continue
            self._sketch.add(obj, d)
            summary_add(obj, d)
            n += d
        self._n_adds += n
        if self._obs.enabled:
            self._refresh_obs()
        return n

    # -- queries -------------------------------------------------------

    def frequency(self, obj: Hashable) -> int:
        return self._sketch.estimate(obj)

    def top_k(self, k: int) -> list[TopEntry]:
        return self._summary.top_k(k)

    def mode(self) -> ModeResult:
        top = self._summary.top_k(1)
        if not top:
            raise EmptyProfileError("no events ingested")
        return ModeResult(
            frequency=top[0].frequency, count=None, example=top[0].obj
        )

    def heavy_hitters(self, phi: float) -> list[TopEntry]:
        return self._summary.heavy_hitters(phi)

    # Queries a sketch pair cannot answer — same loud failure contract
    # as the baselines (ProfilerBase) so the facade stays uniform.

    def least(self) -> ModeResult:
        raise UnsupportedQueryError(self.name, "least")

    def max_frequency(self) -> int:
        raise UnsupportedQueryError(self.name, "max_frequency")

    def min_frequency(self) -> int:
        raise UnsupportedQueryError(self.name, "min_frequency")

    def kth_most_frequent(self, k: int) -> TopEntry:
        raise UnsupportedQueryError(self.name, "kth_most_frequent")

    def median_frequency(self) -> int:
        raise UnsupportedQueryError(self.name, "median")

    def quantile(self, q: float) -> int:
        raise UnsupportedQueryError(self.name, "quantile")

    def histogram(self) -> list[tuple[int, int]]:
        raise UnsupportedQueryError(self.name, "histogram")

    def support(self, f: int) -> int:
        raise UnsupportedQueryError(self.name, "support")

    def error_bound(self) -> float:
        """Current Count-Min additive error bound (``~eps * N``)."""
        return self._sketch.error_bound()

    # -- checkpointing -------------------------------------------------

    def to_state(self) -> dict:
        """Both sketches plus counters as one JSON-safe dict.

        JSON-safe whenever the ingested keys are (ints, strings); the
        Count-Min hash family ships with the state, so integer-keyed
        estimates restore bit-identically in any process — see
        :meth:`repro.approx.countmin.CountMinSketch.to_state` for the
        hash-randomization caveat on string keys.
        """
        return {
            "kind": "approx",
            "counters": self._counters,
            "n_adds": self._n_adds,
            "sketch": self._sketch.to_state(),
            "summary": self._summary.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ApproxProfiler":
        """Rebuild from :meth:`to_state` output (audited)."""
        from repro.approx.countmin import CountMinSketch
        from repro.approx.spacesaving import SpaceSaving
        from repro.errors import CheckpointError

        if not isinstance(state, dict):
            raise CheckpointError(
                f"approx state must be a dict, got {type(state).__name__}"
            )
        missing = {"counters", "n_adds", "sketch", "summary"} - state.keys()
        if missing:
            raise CheckpointError(
                f"approx state is missing keys: {sorted(missing)}"
            )
        counters, n_adds = state["counters"], state["n_adds"]
        if not isinstance(counters, int) or counters <= 0:
            raise CheckpointError(f"bad counters: {counters!r}")
        if not isinstance(n_adds, int) or n_adds < 0:
            raise CheckpointError(f"bad n_adds: {n_adds!r}")
        sketch = CountMinSketch.from_state(state["sketch"])
        # The sketch class itself allows turnstile (negative) cells;
        # this backend is add-only, where every counter is a sum of
        # non-negative masses — a negative cell can only be tampering
        # and would surface as a negative frequency estimate.
        if int(sketch._table.min()) < 0:
            raise CheckpointError(
                "sketch table holds negative counters (approx backend "
                "is add-only)"
            )
        summary = SpaceSaving.from_state(state["summary"])
        if summary.k != counters:
            raise CheckpointError(
                f"summary holds {summary.k} counters but {counters} "
                f"are declared"
            )
        # Every net add lands in both structures, so the three event
        # counters must agree.
        if sketch.total != n_adds or summary.n_events != n_adds:
            raise CheckpointError(
                f"event counters disagree: sketch {sketch.total}, "
                f"summary {summary.n_events}, declared {n_adds}"
            )
        profiler = cls.__new__(cls)
        profiler._sketch = sketch
        profiler._summary = summary
        profiler._counters = counters
        profiler._n_adds = n_adds
        profiler._bind_obs(None)
        return profiler

    def guaranteed_count(self, obj: Hashable) -> int:
        """Certain lower bound on the true count of ``obj``."""
        return self._summary.guaranteed_count(obj)

    # -- accounting ----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Monitored-slot budget (the universe is unbounded)."""
        return self._counters

    @property
    def total(self) -> int:
        return self._sketch.total

    @property
    def n_adds(self) -> int:
        return self._n_adds

    @property
    def n_removes(self) -> int:
        return 0

    @property
    def n_events(self) -> int:
        return self._n_adds

    @property
    def allow_negative(self) -> bool:
        return False

    def __repr__(self) -> str:
        return (
            f"ApproxProfiler(counters={self._counters}, "
            f"events={self._n_adds}, {self._sketch!r})"
        )
