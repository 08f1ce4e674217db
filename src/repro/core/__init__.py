"""Core S-Profile implementation: the paper's primary contribution.

The public surface of this subpackage:

- :class:`repro.core.profile.SProfile` — the O(1)-per-update profiler over
  dense integer ids (Algorithm 1 of the paper).
- :class:`repro.core.flat.FlatProfile` — the same algorithm on flat
  struct-of-arrays storage: integer loads/stores only, fused stream
  loops, vectorized bulk rebuilds (the facade's ``"flat"`` backend and
  its ``"auto"`` choice).  Both cores ``grow`` by splicing in
  zero-frequency slots; the facade doubles them that way to host a
  hashable universe of unknown size.
- :class:`repro.core.interner.ObjectInterner` — the one mapping of
  arbitrary hashable ids onto dense ids, used by the facade.
- :class:`repro.core.snapshot.ProfileSnapshot` — immutable point-in-time
  copy answering the same queries.
- :mod:`repro.core.stats` — distribution summaries over a profile.
- :mod:`repro.core.checkpoint` — state (de)serialization.
- :mod:`repro.core.validation` — O(m) invariant audits used in tests.
"""

from repro.core.block import Block, BlockPool, PoolStats
from repro.core.blockset import BlockSet
from repro.core.checkpoint import (
    STATE_VERSION,
    flat_profile_from_state,
    profile_from_state,
    profile_to_state,
)
from repro.core.flat import FlatProfile
from repro.core.interner import ObjectInterner
from repro.core.profile import SProfile
from repro.core.queries import ModeResult, TopEntry
from repro.core.snapshot import ProfileSnapshot
from repro.core.stats import ProfileSummary, summarize
from repro.core.validation import audit_profile

__all__ = [
    "Block",
    "BlockPool",
    "BlockSet",
    "FlatProfile",
    "ModeResult",
    "ObjectInterner",
    "PoolStats",
    "ProfileSnapshot",
    "ProfileSummary",
    "SProfile",
    "STATE_VERSION",
    "TopEntry",
    "audit_profile",
    "flat_profile_from_state",
    "profile_from_state",
    "profile_to_state",
    "summarize",
]
