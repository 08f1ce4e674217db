"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  The hierarchy separates caller mistakes
(bad ids, unsupported queries) from state violations (frequency underflow
in strict mode, corrupted checkpoints) because the two call for different
handling: the former is a bug in the caller, the latter is data-dependent
and often recoverable.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CapacityError",
    "UnknownObjectError",
    "FrequencyUnderflowError",
    "EmptyProfileError",
    "UnsupportedQueryError",
    "InvariantViolationError",
    "CheckpointError",
    "StreamConfigError",
    "WindowError",
    "ReplicaUnavailableError",
    "ReplicaRecoveringError",
    "ClusterUnhealthyError",
    "FencedWriterError",
    "WalCommitError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class CapacityError(ReproError, ValueError):
    """An object id falls outside ``[0, capacity)`` or capacity is invalid."""


class UnknownObjectError(ReproError, KeyError):
    """An external object id was never registered with the profiler."""


class FrequencyUnderflowError(ReproError, ValueError):
    """A remove would push a frequency below zero in strict mode.

    The paper explicitly allows negative frequencies (the minimum frequency
    "maybe a negative number", section 2.2); strict mode is an opt-out for
    applications where a negative count signals a corrupted stream.
    """


class EmptyProfileError(ReproError, ValueError):
    """A query requires at least one tracked object (``capacity > 0``)."""


class UnsupportedQueryError(ReproError, NotImplementedError):
    """The profiler implementation cannot answer the requested query.

    Baselines intentionally mirror their paper counterparts' limitations:
    a max-heap can report the mode but not the median; a frequency
    multiset tree can report quantiles but not object-level top-k.
    """

    def __init__(self, profiler: str, query: str) -> None:
        super().__init__(f"{profiler} does not support the {query!r} query")
        self.profiler = profiler
        self.query = query


class InvariantViolationError(ReproError, AssertionError):
    """A structural audit found the profile in an inconsistent state."""


class CheckpointError(ReproError, ValueError):
    """A serialized profiler state is malformed or version-incompatible."""


class StreamConfigError(ReproError, ValueError):
    """A stream generator was configured with invalid parameters."""


class WindowError(ReproError, ValueError):
    """Invalid sliding-window configuration or operation."""


class ReplicaUnavailableError(ReproError, ConnectionError):
    """A cluster partition's replica is down, slow past its deadline,
    or circuit-broken.

    Retryable: nothing from the failed request was journaled or
    applied anywhere, so resending the exact same request later is
    safe (the partition heals via supervisor respawn + snapshot
    restore + journal replay, after which requests flow again).
    """

    retryable = True


class ReplicaRecoveringError(ReproError, ConnectionError):
    """The replica is mid-restore (snapshot upload + journal replay).

    Raised *fast*, out of band, instead of letting a query queue
    behind the replay backlog.  Retryable: once the recovery driver
    signals completion the server answers normally again.
    """

    retryable = True


class ClusterUnhealthyError(ReproError, RuntimeError):
    """A replica died repeatedly within the respawn window.

    Terminal, not retryable: the supervisor refuses further respawns
    (something systemic — bad binary, OOM loop, port exhaustion — is
    killing the replica faster than recovery can help) and the tier
    must be torn down and fixed by an operator.
    """

    retryable = False


class FencedWriterError(ReproError, RuntimeError):
    """This router's WAL lease was superseded by a higher fencing epoch.

    A warm standby promoted itself (or an operator forced a new
    lease) while this router still held the directory open.  Terminal
    for this process, by design: the fence check runs *before* the
    ack-gating fsync, so a fenced router can never acknowledge another
    event — it must exit and let the new epoch's owner serve.  The
    events of the batch that tripped the fence were never acked and
    belong to no epoch; clients see a dropped connection, exactly as
    if the old router had been SIGKILLed.
    """

    retryable = False


class WalCommitError(ReproError, RuntimeError):
    """A WAL commit record was appended but could not be made durable.

    Terminal for the writer, like :class:`FencedWriterError`: the
    record may already be on disk, and if it is not, the writer's next
    sync would put it there.  The writer can no longer tell which
    outcome a cold boot will recover, so the router dies rather than
    keep serving a layout the log might contradict.
    """

    retryable = False
