"""Pure partition helpers for the cluster router's ingest side.

The routing rule: partition ``p = x % P`` owns object ``x`` under the
local dense id ``x // P`` (:func:`partition_ids`, its one definition).
The query side — merging replica answers — is
:mod:`repro.engine.merge`; folding partition checkpoints back into one
core is :func:`repro.core.checkpoint.fold_partition_states`.

Everything here is pure (arrays in, arrays or states out), so it is
unit-testable without a single socket.
"""

from __future__ import annotations

import numpy as np

from repro.core.checkpoint import fold_partition_states
from repro.core.profile import ArrayBatch, net_batch, net_events
from repro.errors import CapacityError

__all__ = ["partition_batch", "partition_ids", "repartition_states"]


# ----------------------------------------------------------------------
# Ingest-side: partition one wire batch
# ----------------------------------------------------------------------


def partition_ids(arr, n_parts: int, m: int):
    """Range-validate and partition dense ids over ``n_parts`` owners.

    The single definition of the partition rule (owner
    ``x % n_parts``, local id ``x // n_parts``) and of its batch
    validation — a bad id rejects the whole batch before any owner is
    touched.  Returns ``(residue, local)`` arrays.
    """
    lo = int(arr.min())
    hi = int(arr.max())
    if lo < 0 or hi >= m:
        bad = lo if lo < 0 else hi
        raise CapacityError(f"object id {bad} out of range [0, {m})")
    return arr % n_parts, arr // n_parts


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


def repartition_states(states: list[dict], new_n: int, m: int) -> list[dict]:
    """Re-cut partition checkpoints into ``new_n`` of them.

    The migration primitive of a live rescale: the old partitions'
    facade states fold into one core over the whole universe
    (:func:`~repro.core.checkpoint.fold_partition_states`), whose
    frequency array is cut under the *new* modulus (global id ``g``
    lands in new partition ``g % new_n`` at local id ``g // new_n``).
    Pure and synchronous — the router runs it off-loop via
    ``asyncio.to_thread`` so ingest never stalls behind the re-cut.

    Every new partition gets a state (empty ones included: a replica
    must restore *something* to rewind whatever it booted with), built
    on the same backend as the source states so replica identity
    checks hold across the cutover.
    """
    from repro.api.facade import Profiler

    backend = (states[0] if states else {}).get("backend", "flat")
    whole = fold_partition_states(
        [state["profile"] for state in states], m, flat=backend == "flat"
    )
    freqs = np.asarray(whole.frequencies(), dtype=np.int64)
    out: list[dict] = []
    for q in range(new_n):
        local = freqs[q::new_n]
        ids = np.flatnonzero(local)
        target = Profiler.open(len(local), backend=backend)
        try:
            if ids.size:
                target.ingest_arrays(ids, local[ids])
            out.append(target.to_state())
        finally:
            target.close()
    return out
