"""Click-stream analytics over the unified profiling facade.

The scenario: a content site with a fixed page catalog serves view
traffic from many frontends.  Each frontend flushes micro-batches of
events; the analytics tier must answer "what is trending right now?",
"how is engagement distributed?" and "which pages dominate traffic?"
at any moment, and survive restarts via checkpoints.

:class:`ClickAnalytics` drives the full stack through one front door:
:class:`repro.api.Profiler` opened on one flat core with hashable keys,
bounded by the catalog — the facade interns page names to dense ids,
buffers arrive as micro-batches through the single ``ingest()`` verb
(which coalesces each batch), and dashboard reads fuse every statistic
into one block walk via :meth:`~repro.api.Profiler.evaluate`.  Every
answer is exact, courtesy of the paper's profile structure underneath.

``expire`` feeds the same pipeline with removes, which is how a
sliding-window deployment retires old traffic (paper section 2.3's
dynamic-array framing: views leave the array as the window slides).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

from repro.api import Profiler, Query
from repro.errors import CapacityError, CheckpointError, UnknownObjectError

__all__ = ["ClickAnalytics"]


class ClickAnalytics:
    """Exact popularity analytics for a fixed catalog of pages.

    Parameters
    ----------
    catalog:
        The page identifiers (any hashables, order fixes dense ids).
    batch_size:
        Buffered events are auto-flushed once the buffer reaches this
        size; query methods flush first, so answers are always current.
    allow_negative:
        Default False: a page expired more often than it was viewed
        signals a corrupted pipeline and raises
        :class:`~repro.errors.FrequencyUnderflowError`.

    Examples
    --------
    >>> site = ClickAnalytics(["home", "docs", "blog", "about"])
    >>> site.record_batch(["home", "docs", "home", "docs", "home"])
    5
    >>> site.trending(2)
    [('home', 3), ('docs', 2)]
    >>> site.views("about")
    0
    >>> site.expire(["home"])  # the window slides: one view retires
    1
    >>> site.views("home")
    2
    """

    def __init__(
        self,
        catalog: Sequence[Hashable],
        *,
        batch_size: int = 1024,
        allow_negative: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise CapacityError(
                f"batch_size must be positive, got {batch_size}"
            )
        self._profiler = Profiler.open(
            len(catalog),
            backend="flat",
            keys="hashable",
            strict=not allow_negative,
        )
        for page in catalog:
            self._profiler.register(page)
        if len(self._profiler) != len(catalog):
            raise CapacityError("catalog contains duplicate pages")
        self._batch_size = batch_size
        self._buffer: list[tuple[Hashable, bool]] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def _buffer_events(self, pages: Iterable[Hashable], is_add: bool) -> int:
        profiler = self._profiler
        buffer = self._buffer
        n = 0
        for page in pages:
            if page not in profiler:
                raise UnknownObjectError(page)
            buffer.append((page, is_add))
            n += 1
        if len(buffer) >= self._batch_size:
            self.flush()
        return n

    def record(self, page: Hashable) -> None:
        """Buffer one page view (auto-flushes at ``batch_size``)."""
        self._buffer_events((page,), True)

    def record_batch(self, pages: Iterable[Hashable]) -> int:
        """Buffer one view per element; return the number buffered."""
        return self._buffer_events(pages, True)

    def expire(self, pages: Iterable[Hashable]) -> int:
        """Buffer one *remove* per element (sliding-window retirement)."""
        return self._buffer_events(pages, False)

    def flush(self) -> int:
        """Submit the buffered micro-batch to the engine; return net
        events applied (opposing view/expire pairs cancel).

        If the engine rejects the batch (strict-mode underflow from
        over-expiry), the buffer is restored so no recorded events are
        lost; the error re-raises on every query until the operator
        inspects and calls :meth:`discard_pending`.
        """
        if not self._buffer:
            return 0
        batch = self._buffer
        self._buffer = []
        try:
            return self._profiler.ingest(batch)
        except Exception:
            self._buffer = batch + self._buffer
            raise

    def discard_pending(self) -> int:
        """Drop the buffered events (after a rejected flush); return
        how many were discarded."""
        n = len(self._buffer)
        self._buffer = []
        return n

    @property
    def pending(self) -> int:
        """Events buffered but not yet flushed."""
        return len(self._buffer)

    # ------------------------------------------------------------------
    # Queries (flush first, so answers reflect all recorded traffic)
    # ------------------------------------------------------------------

    def views(self, page: Hashable) -> int:
        """Exact current view count of ``page``."""
        self.flush()
        if page not in self._profiler:
            raise UnknownObjectError(page)
        return self._profiler.frequency(page)

    def trending(self, k: int) -> list[tuple[Hashable, int]]:
        """The ``k`` most viewed pages as ``(page, views)``, descending."""
        self.flush()
        return [
            (entry.obj, entry.frequency)
            for entry in self._profiler.top_k(k)
        ]

    def dominating(self, phi: float = 0.1) -> list[tuple[Hashable, int]]:
        """Pages holding more than ``phi`` of all views — exact
        phi-heavy-hitters."""
        self.flush()
        return [
            (entry.obj, entry.frequency)
            for entry in self._profiler.heavy_hitters(phi)
        ]

    def engagement_quantile(self, q: float) -> int:
        """View count at quantile ``q`` of the per-page distribution."""
        self.flush()
        return self._profiler.quantile(q)

    def median_views(self) -> int:
        """Median per-page view count."""
        self.flush()
        return self._profiler.median_frequency()

    def view_histogram(self) -> list[tuple[int, int]]:
        """``(views, #pages)`` ascending."""
        self.flush()
        return self._profiler.histogram()

    def dashboard(self, k: int = 10, quantiles: Sequence[float] = (0.5, 0.99)):
        """All dashboard statistics from **one** block walk.

        Returns a dict with ``trending`` (top-``k``), ``histogram``,
        ``mode`` and one entry per requested quantile — the fused-plan
        read pattern :meth:`repro.api.Profiler.evaluate` exists for.
        """
        self.flush()
        plan = [Query.mode(), Query.top_k(k), Query.histogram()]
        plan.extend(Query.quantile(q) for q in quantiles)
        result = self._profiler.evaluate(*plan)
        out: dict[str, Any] = {
            "mode": result[0],
            "trending": [(e.obj, e.frequency) for e in result[1]],
            "histogram": result[2],
        }
        for q, value in zip(quantiles, result.values[3:]):
            out[f"p{q}"] = value
        return out

    @property
    def total_views(self) -> int:
        """Net views across the catalog (flushes first)."""
        self.flush()
        return self._profiler.total

    @property
    def catalog_size(self) -> int:
        return len(self._profiler)

    @property
    def profiler(self) -> Profiler:
        """The backing facade (full query surface)."""
        return self._profiler

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Flush and capture full state (catalog + engine) as a dict."""
        self.flush()
        return {
            "batch_size": self._batch_size,
            "profiler": self._profiler.to_state(),
        }

    @classmethod
    def restore(cls, state: dict[str, Any]) -> "ClickAnalytics":
        """Rebuild from :meth:`checkpoint` output (audited restore).

        Checkpoints of earlier releases hold a sharded engine state;
        it loads folded into one core (see
        :meth:`repro.api.Profiler.from_state`).
        """
        try:
            batch_size = state["batch_size"]
            profiler_state = state["profiler"]
        except (TypeError, KeyError) as exc:
            raise CheckpointError(
                f"analytics checkpoint is malformed: {exc!r}"
            ) from exc
        profiler = Profiler.from_state(profiler_state)
        if profiler.keys != "hashable":
            raise CheckpointError(
                "analytics checkpoint does not describe a hashable-key "
                "profiler"
            )
        if len(profiler) != profiler.capacity:
            raise CheckpointError(
                f"catalog names {len(profiler)} pages but the engine "
                f"tracks {profiler.capacity}"
            )
        self = cls.__new__(cls)
        self._profiler = profiler
        self._batch_size = int(batch_size)
        self._buffer = []
        return self

    def __repr__(self) -> str:
        return (
            f"ClickAnalytics(catalog={self.catalog_size}, "
            f"pending={self.pending})"
        )
