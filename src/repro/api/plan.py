"""Query descriptions and the fused single-walk evaluator.

A :class:`Query` names one statistic without computing it.  Handing a
batch of queries to :meth:`repro.api.Profiler.evaluate` lets the
facade answer *all* of them from **one** descending walk over the block
structure of its core instead of one traversal per statistic — the shape dashboard callers need: mode,
top-k, a histogram and a couple of quantiles, refreshed together.

The paper's block set makes this fusion natural: a single pass over the
``(frequency, count)`` runs visits every distinct frequency exactly
once, and each query is a fold over that pass —

- ``mode`` / ``max_frequency``  -> the first run,
- ``least`` / ``min_frequency`` -> the last run,
- ``quantile`` / ``median`` / ``kth_most_frequent`` -> cumulative-count
  thresholds resolved as the walk crosses them,
- ``histogram`` / ``support`` / ``active_count`` -> per-run bookkeeping,
- ``top_k`` / ``heavy_hitters`` -> object enumeration from the runs at
  the head of the walk.

Tie order inside equal frequencies is unordered (the paper's model), so
object-naming answers may legitimately differ between a fused and a
standalone call; frequencies, counts and shapes never do.

>>> from repro.api import Profiler, Query
>>> p = Profiler.open(8, backend="exact")
>>> p.ingest([(1, +3), (2, +1), (3, +1)])
5
>>> result = p.evaluate(Query.mode(), Query.quantile(1.0), Query.support(0))
>>> result["mode"].frequency, result["quantile"], result["support"]
(3, 3, 5)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.core.queries import ModeResult, TopEntry, quantile_rank
from repro.errors import CapacityError, EmptyProfileError

__all__ = [
    "Query",
    "Run",
    "RunsView",
    "WALK_KINDS",
    "evaluate_fused",
    "normalize_queries",
]


#: Query kinds answered from the fused run walk.
WALK_KINDS = frozenset(
    {
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
        "heavy_hitters",
        "active_count",
    }
)

#: Point-query kinds resolved without walking (O(1) on every backend).
POINT_KINDS = frozenset({"frequency", "total"})

_KINDS = WALK_KINDS | POINT_KINDS


@dataclass(frozen=True)
class Query:
    """One statistic to compute, with validated parameters.

    Construct through the classmethods, not the raw constructor:

    >>> Query.quantile(0.5)
    Query(kind='quantile', args=(0.5,))
    >>> Query.top_k(-1)
    Traceback (most recent call last):
        ...
    repro.errors.CapacityError: k must be >= 0, got -1
    """

    kind: str
    args: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise CapacityError(
                f"unknown query kind {self.kind!r}; "
                f"choose from {sorted(_KINDS)}"
            )

    @property
    def key(self) -> str:
        """Unique spelling, e.g. ``"quantile(0.5)"``."""
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.kind}({inner})"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def mode(cls) -> "Query":
        """Most frequent object(s): a :class:`ModeResult`."""
        return cls("mode")

    @classmethod
    def least(cls) -> "Query":
        """Least frequent object(s): a :class:`ModeResult`."""
        return cls("least")

    @classmethod
    def max_frequency(cls) -> "Query":
        return cls("max_frequency")

    @classmethod
    def min_frequency(cls) -> "Query":
        return cls("min_frequency")

    @classmethod
    def top_k(cls, k: int) -> "Query":
        """The ``min(k, m)`` most frequent objects, descending."""
        if k < 0:
            raise CapacityError(f"k must be >= 0, got {k}")
        return cls("top_k", (k,))

    @classmethod
    def kth_most_frequent(cls, k: int) -> "Query":
        """A ``(object, frequency)`` entry of k-th largest frequency."""
        if k < 1:
            raise CapacityError(f"k must be >= 1, got {k}")
        return cls("kth_most_frequent", (k,))

    @classmethod
    def median(cls) -> "Query":
        """Lower median of the frequency array."""
        return cls("median")

    @classmethod
    def quantile(cls, q: float) -> "Query":
        """Frequency at quantile ``q``; semantics per
        :func:`~repro.core.queries.quantile_rank`."""
        if not 0.0 <= q <= 1.0:
            raise CapacityError(f"quantile must be in [0, 1], got {q}")
        return cls("quantile", (float(q),))

    @classmethod
    def histogram(cls) -> "Query":
        """``(frequency, #objects)`` pairs, ascending."""
        return cls("histogram")

    @classmethod
    def support(cls, f: int) -> "Query":
        """Number of objects at frequency exactly ``f``."""
        return cls("support", (int(f),))

    @classmethod
    def heavy_hitters(cls, phi: float) -> "Query":
        """Objects with frequency strictly above ``phi * total``."""
        if not 0.0 < phi <= 1.0:
            raise CapacityError(f"phi must be in (0, 1], got {phi}")
        return cls("heavy_hitters", (float(phi),))

    @classmethod
    def active_count(cls) -> "Query":
        """Number of objects at non-zero frequency."""
        return cls("active_count")

    @classmethod
    def frequency(cls, obj) -> "Query":
        """Net count of one object (O(1) point query)."""
        return cls("frequency", (obj,))

    @classmethod
    def total(cls) -> "Query":
        """Sum of all frequencies (O(1) on every backend)."""
        return cls("total")


class Run(NamedTuple):
    """One merged run of the descending walk: a distinct frequency.

    ``head(limit)`` enumerates up to ``limit`` (all when ``None``)
    objects starting from the run's high edge — the order a descending
    per-object walk would produce.  ``tail(limit)`` starts from the low
    edge.  Ties inside a run are unordered in the model; both accessors
    exist so extremes name the same example a standalone query would.
    """

    f: int
    count: int
    head: Callable[[int | None], list]
    tail: Callable[[int | None], list]


class RunsView:
    """Backend adapter contract consumed by :func:`evaluate_fused`.

    Concrete adapters live in :mod:`repro.api.backends`; they expose

    - ``size`` — the logical universe (int attribute or property),
    - ``total`` — sum of frequencies, O(1),
    - ``iter_runs_desc()`` — the merged descending run walk, visiting
      each underlying block set exactly once.
    """

    size: int
    total: int

    def iter_runs_desc(self) -> Iterator[Run]:  # pragma: no cover
        raise NotImplementedError


def evaluate_fused(
    view: RunsView,
    queries: Sequence[Query],
    frequency: Callable[[Any], int] | None = None,
) -> list:
    """Answer ``queries`` from at most one descending run walk.

    Point kinds (``frequency``/``total``) never walk; ``frequency``
    point queries resolve through the ``frequency`` callable (defaults
    to ``view.frequency`` — pass the facade's translator for hashable
    keys).  Walk kinds share a single pass; when the profile is empty,
    kinds defined on empty profiles (``histogram`` -> ``[]``,
    ``top_k`` -> ``[]``, ``heavy_hitters`` -> ``[]``, ``support`` -> 0,
    ``active_count`` -> 0) answer without walking and the rest raise
    :class:`~repro.errors.EmptyProfileError`.
    """
    if frequency is None:
        frequency = view.frequency
    size = view.size
    values: list[Any] = [None] * len(queries)

    # ------------------------------------------------------------------
    # Pre-scan: what does the walk need to collect?
    # ------------------------------------------------------------------
    walk_needed = False
    rank_targets: dict[int, list[int]] = {}  # desc position -> query idxs
    kth_targets: dict[int, list[int]] = {}  # desc position -> query idxs
    support_targets: dict[int, list[int]] = {}
    hh_targets: list[tuple[int, float]] = []
    topk_max = 0
    want_hist = False

    for i, query in enumerate(queries):
        kind = query.kind
        if kind == "total":
            values[i] = view.total
            continue
        if kind == "frequency":
            values[i] = frequency(query.args[0])
            continue
        if size == 0:
            if kind in ("histogram", "top_k", "heavy_hitters"):
                values[i] = []
                continue
            if kind == "support":
                values[i] = 0
                continue
            if kind == "active_count":
                values[i] = 0
                continue
            raise EmptyProfileError("profile tracks zero objects")
        walk_needed = True
        if kind in ("median", "quantile"):
            q = 0.5 if kind == "median" else query.args[0]
            # median is the *lower* median: ascending rank (size-1)//2.
            rank = (
                (size - 1) // 2 if kind == "median" else quantile_rank(q, size)
            )
            rank_targets.setdefault(size - 1 - rank, []).append(i)
        elif kind == "kth_most_frequent":
            k = query.args[0]
            if k > size:
                raise CapacityError(f"k must be in [1, {size}], got {k}")
            kth_targets.setdefault(k - 1, []).append(i)
        elif kind == "top_k":
            topk_max = max(topk_max, min(query.args[0], size))
        elif kind == "support":
            support_targets.setdefault(query.args[0], []).append(i)
        elif kind == "heavy_hitters":
            hh_targets.append((i, query.args[0]))
        elif kind == "histogram":
            want_hist = True

    if not walk_needed:
        return values

    # ------------------------------------------------------------------
    # The single walk
    # ------------------------------------------------------------------
    total = view.total if hh_targets else 0
    hh_thresholds = [(i, phi * total) for i, phi in hh_targets]
    hh_out: dict[int, list[TopEntry]] = {i: [] for i, _ in hh_targets}
    positions = sorted(set(rank_targets) | set(kth_targets))
    pos_ptr = 0
    hist_rev: list[tuple[int, int]] = []
    topk_entries: list[TopEntry] = []
    first_run: Run | None = None
    last_run: Run | None = None
    zero_count = 0
    cum = 0

    for run in view.iter_runs_desc():
        if first_run is None:
            first_run = run
        last_run = run
        f = run.f
        count = run.count
        end = cum + count
        if want_hist:
            hist_rev.append((f, count))
        if f == 0:
            zero_count = count
        hit = support_targets.get(f)
        if hit:
            for i in hit:
                values[i] = count
        while pos_ptr < len(positions) and positions[pos_ptr] < end:
            pos = positions[pos_ptr]
            for i in rank_targets.get(pos, ()):
                values[i] = f
            for i in kth_targets.get(pos, ()):
                values[i] = TopEntry(run.head(1)[0], f)
            pos_ptr += 1
        if len(topk_entries) < topk_max:
            take = min(topk_max - len(topk_entries), count)
            topk_entries.extend(TopEntry(obj, f) for obj in run.head(take))
        for i, threshold in hh_thresholds:
            if total > 0 and f > threshold:
                hh_out[i].extend(TopEntry(obj, f) for obj in run.head(None))
        cum = end

    assert first_run is not None and last_run is not None

    # ------------------------------------------------------------------
    # Finalize per query
    # ------------------------------------------------------------------
    for i, query in enumerate(queries):
        kind = query.kind
        if kind == "mode":
            values[i] = ModeResult(
                frequency=first_run.f,
                count=first_run.count,
                example=first_run.head(1)[0],
            )
        elif kind == "least":
            values[i] = ModeResult(
                frequency=last_run.f,
                count=last_run.count,
                example=last_run.tail(1)[0],
            )
        elif kind == "max_frequency":
            values[i] = first_run.f
        elif kind == "min_frequency":
            values[i] = last_run.f
        elif kind == "histogram":
            values[i] = hist_rev[::-1]
        elif kind == "top_k":
            values[i] = topk_entries[: min(query.args[0], size)]
        elif kind == "heavy_hitters":
            values[i] = hh_out[i]
        elif kind == "active_count":
            values[i] = size - zero_count
        elif kind == "support" and values[i] is None:
            values[i] = 0
    return values


def normalize_queries(queries: Iterable) -> tuple[Query, ...]:
    """Validate an ``evaluate`` argument list into a Query tuple."""
    out = []
    for query in queries:
        if not isinstance(query, Query):
            raise CapacityError(
                f"evaluate() takes Query instances, got {query!r}"
            )
        out.append(query)
    return tuple(out)
