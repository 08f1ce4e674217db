"""Statistical queries over a maintained profile.

The paper's point is that once the sorted frequency array is profiled by
the block set, every order statistic is a pointer lookup:

- mode           -> the rightmost block (rank ``m-1``),
- least frequent -> the leftmost block (rank ``0``),
- k-th frequent  -> the block covering rank ``m-k``,
- median         -> the block covering rank ``(m-1) // 2``,
- histogram      -> one entry per block.

:class:`ProfileQueryMixin` implements these against the attribute
contract ``_ttof`` (rank -> object), ``_ftot`` (object -> rank) and
``_blocks`` (a :class:`~repro.core.blockset.BlockSet`-shaped reader).
Both the live :class:`~repro.core.profile.SProfile` and the frozen
:class:`~repro.core.snapshot.ProfileSnapshot` mix it in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.errors import CapacityError, EmptyProfileError

__all__ = ["ModeResult", "TopEntry", "ProfileQueryMixin", "quantile_rank"]


def quantile_rank(q: float, size: int) -> int:
    """Rank of quantile ``q`` on an ascending array of ``size`` entries.

    The single definition of quantile semantics every backend shares
    (flat, exact, baselines, the cluster's merged histogram), so their
    answers cannot drift:

    - *nearest-rank, lower*: the rank is ``floor(q * (size - 1))``;
    - ``q == 0.0`` names the minimum (rank 0) and ``q == 1.0`` the
      maximum (rank ``size - 1``) — both exact, never off by float
      rounding;
    - ``q`` outside ``[0, 1]`` raises
      :class:`~repro.errors.CapacityError`;
    - ``size == 0`` raises :class:`~repro.errors.EmptyProfileError`
      (callers usually pre-check and raise it with their own message).

    The definition works unchanged for profiles holding negative
    frequencies: ranks index the ascending sorted array wherever it
    starts.

    >>> quantile_rank(0.0, 10), quantile_rank(1.0, 10)
    (0, 9)
    >>> quantile_rank(0.5, 8)  # lower median rank of 8 entries
    3
    """
    if not 0.0 <= q <= 1.0:
        raise CapacityError(f"quantile must be in [0, 1], got {q}")
    if size <= 0:
        raise EmptyProfileError("profile tracks zero objects")
    if q == 1.0:
        return size - 1
    return int(q * (size - 1))


@dataclass(frozen=True)
class ModeResult:
    """Answer to a mode / least-frequent query.

    ``count`` can be huge (e.g. every object ties at frequency zero), so
    the result carries one ``example`` object and the tie count instead of
    materializing all winners; use ``mode_objects()`` to enumerate them.
    ``count`` is ``None`` when the answering structure cannot report tie
    counts (a heap knows its root, not how many equal it).
    """

    frequency: int
    count: int | None
    example: int

    def is_unique(self) -> bool | None:
        """True when exactly one object attains this frequency.

        ``None`` when the tie count is unknown.
        """
        if self.count is None:
            return None
        return self.count == 1


class TopEntry(NamedTuple):
    """One ``(object, frequency)`` entry of a top-k / bottom-k answer."""

    obj: int
    frequency: int


class ProfileQueryMixin:
    """Order-statistic queries shared by live profiles and snapshots."""

    __slots__ = ()

    # Subclasses provide these attributes.
    _ttof: list[int]
    _ftot: list[int]
    _blocks: object

    # ------------------------------------------------------------------
    # Extremes
    # ------------------------------------------------------------------

    def mode(self) -> ModeResult:
        """Most frequent object(s): frequency, tie count, one example.

        O(1).  Paper Algorithm 1, steps 29-30.
        """
        block = self._blocks.rightmost()
        return ModeResult(
            frequency=block.f,
            count=block.r - block.l + 1,
            example=int(self._ttof[block.r]),
        )

    def least(self) -> ModeResult:
        """Least frequent object(s).  O(1).  Paper steps 29a-30a."""
        block = self._blocks.leftmost()
        return ModeResult(
            frequency=block.f,
            count=block.r - block.l + 1,
            example=int(self._ttof[block.l]),
        )

    def mode_objects(self, limit: int | None = None) -> list[int]:
        """All objects attaining the maximum frequency (up to ``limit``)."""
        block = self._blocks.rightmost()
        return self._objects_in_range(block.l, block.r, limit)

    def least_objects(self, limit: int | None = None) -> list[int]:
        """All objects attaining the minimum frequency (up to ``limit``)."""
        block = self._blocks.leftmost()
        return self._objects_in_range(block.l, block.r, limit)

    def majority(self) -> int | None:
        """The object occurring in more than half of the array, if any.

        Defined for non-negative profiles with at least one element; a
        majority is necessarily the unique mode, so this is O(1).
        Generalizes the Boyer-Moore majority query ([3] in the paper).
        """
        total = self.total
        if total <= 0:
            return None
        block = self._blocks.rightmost()
        if 2 * block.f > total:
            return int(self._ttof[block.r])
        return None

    # ------------------------------------------------------------------
    # Rank queries
    # ------------------------------------------------------------------

    def kth_most_frequent(self, k: int) -> TopEntry:
        """The object of k-th largest frequency (1-based, ties arbitrary).

        O(1): the paper locates it with ``PtrB[m - K + 1]`` (section 2.2).
        """
        m = self._capacity_checked()
        if not 1 <= k <= m:
            raise CapacityError(f"k must be in [1, {m}], got {k}")
        rank = m - k
        return TopEntry(int(self._ttof[rank]), self._blocks.block_at(rank).f)

    def top_k(self, k: int) -> list[TopEntry]:
        """The ``min(k, m)`` most frequent objects, descending.  O(k)."""
        if k < 0:
            raise CapacityError(f"k must be >= 0, got {k}")
        m = self._blocks.capacity
        count = min(k, m)
        ttof = self._ttof
        blocks = self._blocks
        out: list[TopEntry] = []
        rank = m - 1
        while len(out) < count:
            block = blocks.block_at(rank)
            f = block.f
            stop = max(block.l, rank - (count - len(out)) + 1)
            for position in range(rank, stop - 1, -1):
                out.append(TopEntry(int(ttof[position]), f))
            rank = block.l - 1
        return out

    def bottom_k(self, k: int) -> list[TopEntry]:
        """The ``min(k, m)`` least frequent objects, ascending.  O(k)."""
        if k < 0:
            raise CapacityError(f"k must be >= 0, got {k}")
        m = self._blocks.capacity
        count = min(k, m)
        ttof = self._ttof
        blocks = self._blocks
        out: list[TopEntry] = []
        rank = 0
        while len(out) < count:
            block = blocks.block_at(rank)
            f = block.f
            stop = min(block.r, rank + (count - len(out)) - 1)
            for position in range(rank, stop + 1):
                out.append(TopEntry(int(ttof[position]), f))
            rank = block.r + 1
        return out

    def frequency_at_rank(self, rank: int) -> int:
        """``T[rank]`` — the frequency at ascending sorted position."""
        return self._blocks.block_at(rank).f

    def object_at_rank(self, rank: int) -> int:
        """``TtoF[rank]`` — the object sitting at sorted position."""
        m = self._capacity_checked()
        if not 0 <= rank < m:
            raise CapacityError(f"rank {rank} out of range [0, {m})")
        return int(self._ttof[rank])

    def rank_of(self, obj: int) -> int:
        """``FtoT[obj]`` — the sorted position of an object.  O(1)."""
        self._check_object(obj)
        return int(self._ftot[obj])

    def frequency(self, obj: int) -> int:
        """Net occurrence count of ``obj``.  O(1)."""
        self._check_object(obj)
        return self._blocks.block_at(self._ftot[obj]).f

    def max_frequency(self) -> int:
        """The largest frequency (the mode's frequency).  O(1)."""
        return self._blocks.rightmost().f

    def min_frequency(self) -> int:
        """The smallest frequency.  O(1)."""
        return self._blocks.leftmost().f

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------

    def median_frequency(self) -> int:
        """Lower median of the frequency array (all ``m`` entries).  O(1).

        This is the query benchmarked against the balanced tree in the
        paper's section 3.2.
        """
        m = self._capacity_checked()
        return self._blocks.block_at((m - 1) // 2).f

    def quantile(self, q: float) -> int:
        """Frequency at quantile ``q`` in [0, 1].  O(1).

        Semantics per :func:`quantile_rank`: lower nearest-rank,
        ``q=0`` is the minimum, ``q=1`` the maximum.
        """
        m = self._capacity_checked()
        return self._blocks.block_at(quantile_rank(q, m)).f

    # ------------------------------------------------------------------
    # Distribution
    # ------------------------------------------------------------------

    def histogram(self) -> list[tuple[int, int]]:
        """``(frequency, #objects)`` pairs, ascending.  O(#blocks)."""
        return [
            (block.f, block.r - block.l + 1)
            for block in self._blocks.iter_blocks()
        ]

    def support(self, f: int) -> int:
        """Number of objects with frequency exactly ``f``."""
        block = self._blocks.block_for_frequency(f)
        if block is None:
            return 0
        return block.r - block.l + 1

    def objects_with_frequency(
        self, f: int, limit: int | None = None
    ) -> list[int]:
        """Objects whose frequency is exactly ``f`` (up to ``limit``)."""
        block = self._blocks.block_for_frequency(f)
        if block is None:
            return []
        return self._objects_in_range(block.l, block.r, limit)

    def iter_sorted(self) -> Iterator[TopEntry]:
        """Yield ``(object, frequency)`` in ascending frequency order."""
        ttof = self._ttof
        for block in self._blocks.iter_blocks():
            f = block.f
            for rank in range(block.l, block.r + 1):
                yield TopEntry(int(ttof[rank]), f)

    def heavy_hitters(self, phi: float) -> list[TopEntry]:
        """Objects whose frequency exceeds ``phi * total`` — *exactly*.

        The classic phi-heavy-hitters query that sketch structures
        (Count-Min, SpaceSaving) answer approximately; with the profile
        maintained it is exact in O(#hitters) via a descending block
        walk.  Requires positive total mass; ``phi`` in (0, 1].
        """
        if not 0.0 < phi <= 1.0:
            raise CapacityError(f"phi must be in (0, 1], got {phi}")
        total = self.total
        out: list[TopEntry] = []
        if total <= 0:
            return out
        threshold = phi * total
        ttof = self._ttof
        for block in self._blocks.iter_blocks_desc():
            if block.f <= threshold:
                break
            f = block.f
            for rank in range(block.r, block.l - 1, -1):
                out.append(TopEntry(int(ttof[rank]), f))
        return out

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _objects_in_range(
        self, l: int, r: int, limit: int | None
    ) -> list[int]:
        if limit is not None:
            if limit < 0:
                raise CapacityError(f"limit must be >= 0, got {limit}")
            r = min(r, l + limit - 1)
        segment = self._ttof[l : r + 1]
        # ndarray slice (array-engine profiles) -> plain int list.
        if hasattr(segment, "tolist"):
            return segment.tolist()
        return segment

    def _capacity_checked(self) -> int:
        m = self._blocks.capacity
        if m == 0:
            raise EmptyProfileError("profile tracks zero objects")
        return m

    def _check_object(self, obj: int) -> None:
        if not 0 <= obj < self._blocks.capacity:
            raise CapacityError(
                f"object id {obj} out of range [0, {self._blocks.capacity})"
            )

    # Subclasses override with maintained counters where available.
    @property
    def total(self) -> int:
        """Sum of all frequencies (= adds - removes = len of array A)."""
        return sum(
            block.f * (block.r - block.l + 1)
            for block in self._blocks.iter_blocks()
        )
