"""repro.cluster — a replicated serving tier for one dense universe.

A :class:`ClusterRouter` fronts N replica :class:`~repro.server.service
.ProfileServer` processes: it partitions every wire batch by the
modulus rule (``x % N`` owns, ``x // N`` is the local id; the one
place a universe is partitioned), fans sub-batches out over the
negotiated codec, merges acks, and answers queries by merging replica
reads with :mod:`repro.engine.merge`; its ``checkpoint`` folds the
replicas back into one core's state.  Replicas snapshot
through the audited checkpoint schema; the router journals
post-snapshot batches per partition in one log (:class:`RouterWal`)
so a killed replica recovers by snapshot-restore + ``seq``-ordered
replay with zero acknowledged-event loss.

With ``journal_dir`` set, that log is also durable: entries hit an fsync'd CRC-framed segment
file before any replica sees a byte, so killing the *router* process
(SIGKILL included) loses nothing — a cold router on the same directory
restores the persisted snapshots and replays the surviving log.
``strict=True`` adds cross-partition two-phase commit on top;
``replica_timeout`` bounds every replica round with a circuit breaker
so one frozen replica fails only its own partitions.

The WAL directory is also the cluster's failover and rescale
substrate.  A :class:`StandbyRouter` tails it live (:class:`WalTail`),
detects primary death through a fenced lease file plus a health probe,
and promotes itself in bounded time — finishing replay of the sealed
tail and resuming acks with zero acknowledged-event loss, while the
fencing epoch stamped into every segment header keeps a deposed
primary from ever acking again.  The same machinery drives
``rescale(n)``: partitions migrate to a changed replica set by
snapshot + seq-ordered replay, double-written during the handoff
epoch so ingest and queries never stop.

``python -m repro.cluster`` stands the whole tier up in one command
(``--standby`` follows instead of serving);
:class:`ReplicaSupervisor` manages the replica processes, each forked
from a pre-imported zygote (:mod:`repro.cluster.zygote`).
"""

from importlib import import_module

#: Public name -> defining module, imported on first access (PEP 562):
#: ``python -m repro.cluster`` must reach its ``__main__`` before
#: anything imports NumPy.
_EXPORTS = {
    "ClusterRouter": "repro.cluster.router",
    "JournalEntry": "repro.cluster.journal",
    "ReplicaSupervisor": "repro.cluster.supervisor",
    "RouterWal": "repro.cluster.journal",
    "StandbyRouter": "repro.cluster.standby",
    "WalTail": "repro.cluster.journal",
    "partition_capacity": "repro.cluster.router",
}

__all__ = [
    "ClusterRouter",
    "JournalEntry",
    "ReplicaSupervisor",
    "RouterWal",
    "StandbyRouter",
    "WalTail",
    "partition_capacity",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.cluster' has no attribute {name!r}"
        )
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
