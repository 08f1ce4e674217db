"""Shared type aliases and protocols.

Kept in a private module so public modules can import without cycles.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Protocol, Tuple, runtime_checkable

__all__ = [
    "ObjectId",
    "ExternalId",
    "Frequency",
    "Rank",
    "EventTuple",
    "SupportsProfile",
]

#: Dense internal object id, an integer in ``[0, capacity)``.
ObjectId = int

#: External id accepted by ``Profiler.open(keys="hashable")``.
ExternalId = Hashable

#: Net occurrence count of an object (may be negative when allowed).
Frequency = int

#: Position in the conceptual sorted frequency array ``T``.
Rank = int

#: ``(object_id, is_add)`` pair, the raw form of a log-stream tuple.
EventTuple = Tuple[int, bool]


@runtime_checkable
class SupportsProfile(Protocol):
    """Structural type implemented by every profiler in this package."""

    @property
    def capacity(self) -> int: ...

    def add(self, obj: int) -> None: ...

    def remove(self, obj: int) -> None: ...

    def frequency(self, obj: int) -> int: ...

    def add_many(self, objs: Iterable[int]) -> int: ...

    def remove_many(self, objs: Iterable[int]) -> int: ...

    def apply(self, deltas) -> int: ...
