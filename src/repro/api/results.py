"""Versioned, frozen result containers for the unified query surface.

Every backend — flat, exact, baseline, approximate — answers through
the same vocabulary, and so does the cluster router's merge:

- scalar statistics are plain ints/floats,
- mode / least answers are :class:`~repro.core.queries.ModeResult`,
- ranked entries are :class:`~repro.core.queries.TopEntry`,
- a fused :meth:`repro.api.Profiler.evaluate` call returns one
  :class:`EvalResult` pairing each submitted
  :class:`~repro.api.plan.Query` with its value.

``RESULT_VERSION`` stamps :class:`EvalResult` so downstream consumers
(dashboards, serialized reports) can detect layout changes; bump it when
a field is added, removed or reinterpreted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.queries import ModeResult, TopEntry
from repro.errors import CapacityError

__all__ = ["RESULT_VERSION", "EvalResult", "ModeResult", "TopEntry"]

#: Bump when the EvalResult layout changes incompatibly.
RESULT_VERSION = 1


@dataclass(frozen=True)
class EvalResult:
    """Answers of one fused :meth:`~repro.api.Profiler.evaluate` call.

    ``queries`` and ``values`` are parallel tuples in submission order.
    Index by position (``result[0]``), by the :class:`Query` itself
    (``result[Query.mode()]``) or — when unambiguous — by kind name
    (``result["mode"]``).

    ``partial`` is ``False`` for every in-process evaluate; a cluster
    router serving degraded reads sets it ``True`` when the answers
    were merged from a subset of live partitions (one or more replicas
    were circuit-broken) — the explicit staleness marker of the
    degraded-read contract.  A partial answer is the one a profile
    holding only the live partitions' objects would give: ranks
    (``median``, ``quantile``, ``kth_most_frequent``) count over that
    live universe, not the full capacity.
    """

    queries: tuple
    values: tuple
    version: int = field(default=RESULT_VERSION)
    partial: bool = field(default=False)

    def __post_init__(self) -> None:
        if len(self.queries) != len(self.values):
            raise CapacityError(
                f"{len(self.queries)} queries but {len(self.values)} values"
            )

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[tuple]:
        return iter(zip(self.queries, self.values))

    def __getitem__(self, key) -> Any:
        if isinstance(key, int):
            return self.values[key]
        if isinstance(key, str):
            matches = [
                value
                for query, value in zip(self.queries, self.values)
                if query.kind == key
            ]
            if not matches:
                raise KeyError(f"no {key!r} query in this result")
            if len(matches) > 1:
                raise KeyError(
                    f"{len(matches)} {key!r} queries in this result; "
                    f"index by position or by Query instance"
                )
            return matches[0]
        for query, value in zip(self.queries, self.values):
            if query == key:
                return value
        raise KeyError(f"query {key!r} not part of this result")

    def as_dict(self) -> dict[str, Any]:
        """``{query.key: value}`` — keys are unique query spellings."""
        return {
            query.key: value
            for query, value in zip(self.queries, self.values)
        }
