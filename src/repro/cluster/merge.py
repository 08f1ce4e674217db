"""Pure partition helpers for the cluster router's ingest side.

The routing rule is the engines' own: partition ``p = x % P`` owns
object ``x`` under the local dense id ``x // P`` — the single
definition lives in :func:`repro.engine.sharding.partition_ids` and is
reused here, so the wire tier and the in-process sharded engine can
never drift.  The query side — merging replica answers — is
:mod:`repro.engine.merge`, shared with
:class:`~repro.engine.sharding.ShardedProfiler`.

Everything here is pure (arrays in, arrays or states out), so it is
unit-testable without a single socket.
"""

from __future__ import annotations

import numpy as np

from repro.core.profile import ArrayBatch, net_batch, net_events
from repro.engine.sharding import partition_ids

__all__ = ["partition_batch", "repartition_states"]


# ----------------------------------------------------------------------
# Ingest-side: partition one wire batch
# ----------------------------------------------------------------------


def partition_batch(data, n_parts: int, m: int):
    """Split one decoded wire batch into per-partition columns.

    ``data`` is either a binary-codec :class:`ArrayBatch` or the JSON
    decoder's ``(obj, delta)`` pair list.  Returns ``(parts, applied)``
    where ``parts`` maps partition index to ``(local_ids, deltas)``
    parallel numpy ``int64`` columns and ``applied`` is the facade's
    would-be ``ingest`` return value — the net unit
    events of the *whole* batch, which equals the sum of the per
    -partition replica answers because the partition splits objects.

    Range-validates the whole batch first with the engines' exact
    error, so a bad id rejects the wire batch before any partition
    sees a byte — sub-batches fanned out from here can only fail by
    connection loss, never by content.
    """
    if isinstance(data, ArrayBatch):
        ids = np.asarray(data.ids, dtype=np.int64)
        deltas = np.asarray(data.deltas, dtype=np.int64)
    else:
        ids = np.fromiter(
            (x for x, _ in data), dtype=np.int64, count=len(data)
        )
        deltas = np.fromiter(
            (d for _, d in data), dtype=np.int64, count=len(data)
        )
    if len(ids) == 0:
        return {}, 0
    residue, local = partition_ids(ids, n_parts, m)
    parts = {}
    for p in range(n_parts):
        sel = residue == p
        if sel.any():
            parts[p] = (local[sel], deltas[sel])
    # Net unit events of the whole batch (the facade's return value),
    # netted the way the facade nets an array batch.
    return parts, net_events(net_batch(ids, deltas))


def repartition_states(
    states: list[dict], old_n: int, new_n: int, m: int
) -> list[dict]:
    """Re-cut ``old_n`` partition checkpoints into ``new_n`` of them.

    The migration primitive of a live rescale: each old partition's
    facade state is restored, its dense frequency array read out, and
    every nonzero frequency re-bucketed under the *new* modulus
    (global id ``g = local * old_n + p`` lands in new partition
    ``g % new_n`` at local id ``g // new_n``).  Pure and synchronous —
    the router runs it off-loop via ``asyncio.to_thread`` so ingest
    never stalls behind the re-cut.

    Every new partition gets a state (empty ones included: a replica
    must restore *something* to rewind whatever it booted with), built
    on the same backend as the source states so replica identity
    checks hold across the cutover.
    """
    from repro.api.facade import Profiler

    def cap(q: int) -> int:
        return (m - q + new_n - 1) // new_n

    backend = (states[0] if states else {}).get("backend", "flat")
    cols: list[tuple[list, list]] = [([], []) for _ in range(new_n)]
    for p, state in enumerate(states):
        source = Profiler.from_state(state)
        try:
            freqs = source.frequencies()
        finally:
            source.close()
        for local, f in enumerate(freqs):
            if not f:
                continue
            g = local * old_n + p
            ids, deltas = cols[g % new_n]
            ids.append(g // new_n)
            deltas.append(f)
    out: list[dict] = []
    for q in range(new_n):
        ids, deltas = cols[q]
        target = Profiler.open(cap(q), backend=backend)
        try:
            if ids:
                target.ingest_arrays(ids, deltas)
            out.append(target.to_state())
        finally:
            target.close()
    return out
