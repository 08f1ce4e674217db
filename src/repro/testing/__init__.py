"""repro.testing — deterministic chaos tooling for the serving tier.

:mod:`repro.testing.faults` is the seeded fault-injection layer the
cluster hardening tests (and the CI ``chaos-smoke`` job) drive: named
injection points threaded through the router, journal, supervisor and
server service fire crash / delay / drop actions on a reproducible
schedule.  Importing this package costs nothing at serving time — the
hooks are a single module-attribute check when no schedule is armed.

:func:`repro.testing.flusher.hold_flusher` parks a server's group-commit
flusher so a test can queue several wire batches into one flush.
"""

from repro.testing.faults import (
    FaultSchedule,
    InjectedFault,
    SimulatedCrash,
    active_schedule,
    arm,
    disarm,
    fault_point,
    fault_point_sync,
)
from repro.testing.flusher import hold_flusher

__all__ = [
    "FaultSchedule",
    "InjectedFault",
    "SimulatedCrash",
    "active_schedule",
    "arm",
    "disarm",
    "fault_point",
    "fault_point_sync",
    "hold_flusher",
]
