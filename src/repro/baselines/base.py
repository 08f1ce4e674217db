"""Common profiler interface shared by S-Profile and every baseline.

The interface is duck-typed — :class:`~repro.core.profile.SProfile` does
not inherit from :class:`ProfilerBase` but exposes the same methods.
Baselines inherit to share the frequency array, event accounting and the
"unsupported query" plumbing.

Each implementation declares which queries it answers in
``SUPPORTED_QUERIES`` (a subset of :data:`QUERY_NAMES`).  Baselines
intentionally mirror the limitations of their paper counterparts: a
max-heap knows its root but not the median; a frequency multiset knows
every quantile but cannot name objects.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import Iterable

from repro.core.profile import net_deltas
from repro.core.queries import ModeResult, TopEntry
from repro.errors import (
    CapacityError,
    EmptyProfileError,
    FrequencyUnderflowError,
    UnsupportedQueryError,
)

__all__ = ["ProfilerBase", "QUERY_NAMES"]

#: Every query name a profiler may declare support for.
QUERY_NAMES = frozenset(
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


class ProfilerBase(ABC):
    """Frequency array + event accounting; order statistics per subclass.

    Subclasses implement ``_after_add(obj, new_freq)`` and
    ``_after_remove(obj, new_freq)`` to maintain their query structure,
    and override the query methods they declare in ``SUPPORTED_QUERIES``.
    """

    SUPPORTED_QUERIES: frozenset[str] = frozenset({"frequency"})

    #: Short name used by the registry and benchmark reports.
    name: str = "base"

    def __init__(self, capacity: int, *, allow_negative: bool = True) -> None:
        if capacity < 0:
            raise CapacityError(f"capacity must be >= 0, got {capacity}")
        self._m = capacity
        self._freq = [0] * capacity
        self._allow_negative = allow_negative
        self._base_total = 0
        self._n_adds = 0
        self._n_removes = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, x: int) -> None:
        """Process an "add" event for object ``x``."""
        if not 0 <= x < self._m:
            raise CapacityError(f"object id {x} out of range [0, {self._m})")
        new = self._freq[x] + 1
        self._freq[x] = new
        self._n_adds += 1
        self._after_add(x, new)

    def remove(self, x: int) -> None:
        """Process a "remove" event for object ``x``."""
        if not 0 <= x < self._m:
            raise CapacityError(f"object id {x} out of range [0, {self._m})")
        old = self._freq[x]
        if old <= 0 and not self._allow_negative:
            raise FrequencyUnderflowError(
                f"removing object {x} at frequency {old} would go negative"
            )
        new = old - 1
        self._freq[x] = new
        self._n_removes += 1
        self._after_remove(x, new)

    def update(self, x: int, is_add: bool) -> None:
        if is_add:
            self.add(x)
        else:
            self.remove(x)

    def consume(self, events: Iterable[tuple[int, bool]]) -> int:
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
        """Apply parallel id/flag arrays (numpy or sequences)."""
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
    # Batch ingestion — generic loops with the per-event attribute
    # lookups hoisted, so benchmarks compare every profiler through the
    # same bulk interface as SProfile's coalescing fast paths.
    # ------------------------------------------------------------------

    def add_many(self, xs: Iterable[int]) -> int:
        """Apply one add per element of ``xs``; return the event count.

        All-or-nothing like the S-Profile counterpart: out-of-range
        ids are rejected before any event applies.
        """
        xs = xs.tolist() if hasattr(xs, "tolist") else list(xs)
        m = self._m
        for x in xs:
            if not 0 <= x < m:
                raise CapacityError(
                    f"object id {x} out of range [0, {m})"
                )
        freq = self._freq
        after = self._after_add
        for x in xs:
            new = freq[x] + 1
            freq[x] = new
            after(x, new)
        n = len(xs)
        self._n_adds += n
        return n

    def remove_many(self, xs: Iterable[int]) -> int:
        """Apply one remove per element of ``xs``; return the count.

        All-or-nothing like the S-Profile counterpart: out-of-range
        ids and strict-mode underflows (per-key totals against current
        frequencies) are rejected before any event applies.
        """
        xs = xs.tolist() if hasattr(xs, "tolist") else list(xs)
        m = self._m
        freq = self._freq
        for x in xs:
            if not 0 <= x < m:
                raise CapacityError(
                    f"object id {x} out of range [0, {m})"
                )
        if not self._allow_negative:
            for x, c in Counter(xs).items():
                if c > freq[x]:
                    raise FrequencyUnderflowError(
                        f"removing object {x} at frequency {freq[x]} "
                        f"{c} times would go negative"
                    )
        after = self._after_remove
        for x in xs:
            new = freq[x] - 1
            freq[x] = new
            after(x, new)
        n = len(xs)
        self._n_removes += n
        return n

    def apply(self, deltas) -> int:
        """Apply ``(object, delta)`` pairs (or a mapping) as unit steps.

        Returns the number of net unit events applied.  Deltas for the
        same key are summed first, then every id is range-checked,
        then strict-mode net underflows — all before any event applies.
        That is :meth:`repro.core.profile.SProfile.apply`'s
        all-or-nothing batch semantics and error precedence, so every
        dense backend rejects a failing batch with the same error.
        """
        net = net_deltas(deltas)
        m = self._m
        freq = self._freq
        strict = not self._allow_negative
        for x in net:
            if not 0 <= x < m:
                raise CapacityError(
                    f"object id {x} out of range [0, {m})"
                )
        for x, d in net.items():
            if strict and d < 0 and freq[x] + d < 0:
                raise FrequencyUnderflowError(
                    f"removing object {x} at frequency {freq[x]} "
                    f"{-d} times (net) would go negative"
                )
        n = 0
        for x, d in net.items():
            if d > 0:
                for _ in range(d):
                    self.add(x)
                n += d
            elif d < 0:
                for _ in range(-d):
                    self.remove(x)
                n -= d
        return n

    @abstractmethod
    def _after_add(self, x: int, new_freq: int) -> None:
        """Maintain the query structure after ``freq[x]`` became ``new_freq``."""

    @abstractmethod
    def _after_remove(self, x: int, new_freq: int) -> None:
        """Maintain the query structure after ``freq[x]`` became ``new_freq``."""

    # ------------------------------------------------------------------
    # Universally supported lookups
    # ------------------------------------------------------------------

    def frequency(self, x: int) -> int:
        if not 0 <= x < self._m:
            raise CapacityError(f"object id {x} out of range [0, {self._m})")
        return self._freq[x]

    def frequencies(self) -> list[int]:
        """Copy of the frequency array (for inspection and tests)."""
        return list(self._freq)

    @property
    def capacity(self) -> int:
        return self._m

    @property
    def total(self) -> int:
        return self._base_total + self._n_adds - self._n_removes

    @property
    def n_adds(self) -> int:
        return self._n_adds

    @property
    def n_removes(self) -> int:
        return self._n_removes

    @property
    def n_events(self) -> int:
        return self._n_adds + self._n_removes

    @property
    def allow_negative(self) -> bool:
        return self._allow_negative

    # ------------------------------------------------------------------
    # Queries — default to unsupported; subclasses override their set.
    # ------------------------------------------------------------------

    def mode(self) -> ModeResult:
        raise UnsupportedQueryError(self.name, "mode")

    def least(self) -> ModeResult:
        raise UnsupportedQueryError(self.name, "least")

    def max_frequency(self) -> int:
        raise UnsupportedQueryError(self.name, "max_frequency")

    def min_frequency(self) -> int:
        raise UnsupportedQueryError(self.name, "min_frequency")

    def top_k(self, k: int) -> list[TopEntry]:
        raise UnsupportedQueryError(self.name, "top_k")

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

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _capacity_checked(self) -> int:
        if self._m == 0:
            raise EmptyProfileError("profile tracks zero objects")
        return self._m

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self._m}, total={self.total}, "
            f"events={self.n_events})"
        )
