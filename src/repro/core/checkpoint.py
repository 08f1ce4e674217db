"""Checkpointing: serialize a profiler to a plain dict and back.

The state format is JSON-safe (ints, lists, strings only) and versioned.
Restoring audits the rebuilt structure, so a corrupted or hand-edited
checkpoint fails loudly with :class:`~repro.errors.CheckpointError`
instead of silently producing wrong statistics.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import Any

from repro.core.flat import FlatProfile
from repro.core.profile import SProfile
from repro.core.validation import audit_profile
from repro.errors import CheckpointError, InvariantViolationError

__all__ = [
    "STATE_VERSION",
    "ARRAY_STATE_VERSION",
    "profile_to_state",
    "profile_from_state",
    "flat_profile_from_state",
    "flat_profile_to_array_state",
    "flat_profile_from_array_state",
    "save_profile",
    "load_profile",
]

#: Bump when the state layout changes incompatibly.
STATE_VERSION = 1

#: Bump when the buffer-level array state layout changes incompatibly.
ARRAY_STATE_VERSION = 1

_REQUIRED_KEYS = frozenset(
    {
        "version",
        "capacity",
        "allow_negative",
        "track_freq_index",
        "ttof",
        "runs",
        "n_adds",
        "n_removes",
    }
)


def profile_to_state(profile) -> dict[str, Any]:
    """Capture the full state of a profiler as a JSON-safe dict.

    Works on any profiler exposing the block-structured contract —
    :class:`~repro.core.profile.SProfile` and
    :class:`~repro.core.flat.FlatProfile` share one schema, so a
    checkpoint written by either engine restores into either
    (:func:`profile_from_state` / :func:`flat_profile_from_state`).
    """
    ttof = profile._ttof
    return {
        "version": STATE_VERSION,
        "capacity": profile.capacity,
        "allow_negative": profile.allow_negative,
        "track_freq_index": profile.blocks.tracks_freq_index,
        # tolist() (array engine) yields plain Python ints, keeping
        # np.int64 scalars out of the JSON-safe payload.
        "ttof": ttof.tolist() if hasattr(ttof, "tolist") else list(ttof),
        # A dense rebuild fed numpy deltas leaves numpy frequencies
        # and counters; int() keeps them out of the payload too.
        "runs": [
            [int(v) for v in run] for run in profile.blocks.as_tuples()
        ],
        "n_adds": int(profile.n_adds),
        "n_removes": int(profile.n_removes),
    }


def _restore(state: dict[str, Any], install):
    """Shared validate/install/re-anchor/audit pipeline of both engines.

    ``install(ttof, runs, state)`` builds and returns the profile from
    the validated permutation and runs; everything around it — schema
    checks, counter restoration, the base-total re-anchor, and the
    post-restore audit — is engine-independent, so the two restore
    paths cannot drift.
    """
    if not isinstance(state, dict):
        raise CheckpointError(
            f"state must be a dict, got {type(state).__name__}"
        )
    missing = _REQUIRED_KEYS - state.keys()
    if missing:
        raise CheckpointError(f"state is missing keys: {sorted(missing)}")
    if state["version"] != STATE_VERSION:
        raise CheckpointError(
            f"state version {state['version']} unsupported "
            f"(expected {STATE_VERSION})"
        )
    capacity = state["capacity"]
    ttof = state["ttof"]
    runs = state["runs"]
    if not isinstance(capacity, int) or capacity < 0:
        raise CheckpointError(f"bad capacity: {capacity!r}")
    if not isinstance(ttof, list):
        raise CheckpointError(
            f"ttof must be a list, got {type(ttof).__name__}"
        )
    if len(ttof) != capacity:
        raise CheckpointError(
            f"ttof length {len(ttof)} != capacity {capacity}"
        )
    for key in ("n_adds", "n_removes"):
        value = state[key]
        if (
            not isinstance(value, numbers.Integral)
            or isinstance(value, bool)
            or value < 0
        ):
            raise CheckpointError(f"bad {key} counter: {value!r}")

    try:
        profile = install(
            [int(x) for x in ttof],
            [tuple(int(v) for v in run) for run in runs],
            state,
        )
    except (InvariantViolationError, ValueError, TypeError, IndexError) as exc:
        raise CheckpointError(
            f"state does not describe a valid profile: {exc}"
        ) from exc

    profile._n_adds = int(state["n_adds"])
    profile._n_removes = int(state["n_removes"])
    # Re-anchor the total: current block mass minus net event delta
    # gives the mass the profile carried before its first event.
    total = 0
    for block in profile.blocks.iter_blocks():
        total += block.f * (block.r - block.l + 1)
    profile._base_total = total - (profile._n_adds - profile._n_removes)

    try:
        audit_profile(profile)
    except InvariantViolationError as exc:
        raise CheckpointError(f"restored profile failed audit: {exc}") from exc
    return profile


def profile_from_state(state: dict[str, Any]) -> SProfile:
    """Rebuild a block-object profiler from :func:`profile_to_state`
    output.  Validates structure before and after the rebuild.
    """

    def install(ttof, runs, st):
        profile = SProfile(0, allow_negative=bool(st["allow_negative"]))
        profile._install(
            ttof,
            runs,
            allow_negative=bool(st["allow_negative"]),
            track_freq_index=bool(st["track_freq_index"]),
        )
        return profile

    return _restore(state, install)


def flat_profile_from_state(
    state: dict[str, Any], *, array_engine: bool = False
) -> FlatProfile:
    """Rebuild a :class:`~repro.core.flat.FlatProfile` from
    :func:`profile_to_state` output (same schema as the block-object
    engine; ``track_freq_index`` is accepted and ignored — the flat
    engine answers ``support`` from the run walk).

    ``array_engine=True`` restores onto numpy-buffer storage (requires
    numpy).  Validates structure before and after the rebuild.
    """

    def install(ttof, runs, st):
        profile = FlatProfile(
            0,
            allow_negative=bool(st["allow_negative"]),
            array_engine=array_engine,
        )
        profile._install_runs(ttof, runs)
        return profile

    return _restore(state, install)


def flat_profile_to_array_state(profile: FlatProfile) -> dict[str, Any]:
    """Buffer-level checkpoint of a flat profile: O(1) Python objects
    per buffer.

    For an array-engine profile the six structure entries are
    **zero-copy ndarray views** of the live buffers (``bl``/``bre``/
    ``bf`` sliced to the minted prefix) — no per-element boxing, no
    copying; freeze them (``.copy()``) before mutating the source if
    the state must outlive it.  List-engine profiles are converted
    through one C-speed ``np.asarray`` pass per buffer.

    Not JSON-safe (holds ndarrays); for the portable JSON schema use
    :func:`profile_to_state`.  Restore with
    :func:`flat_profile_from_array_state`.
    """
    import numpy as np

    bn = profile.block_slots
    if profile._array:
        ftot, ttof, ptrb = profile._ftot, profile._ttof, profile._ptrb
        bl = profile._bl[:bn]
        bre = profile._bre[:bn]
        bf = profile._bf[:bn]
    else:
        ftot = np.asarray(profile._ftot, dtype=np.int64)
        ttof = np.asarray(profile._ttof, dtype=np.int64)
        ptrb = np.asarray(profile._ptrb, dtype=np.int64)
        bl = np.asarray(profile._bl, dtype=np.int64)
        bre = np.asarray(profile._bre, dtype=np.int64)
        bf = np.asarray(profile._bf, dtype=np.int64)
    return {
        "version": ARRAY_STATE_VERSION,
        "capacity": profile._m,
        "allow_negative": profile._allow_negative,
        "block_slots": bn,
        "free_head": int(profile._free_head),
        "n_adds": profile._n_adds,
        "n_removes": profile._n_removes,
        "base_total": profile._base_total,
        "last_tracked": int(profile._last_tracked),
        "ftot": ftot,
        "ttof": ttof,
        "ptrb": ptrb,
        "bl": bl,
        "bre": bre,
        "bf": bf,
    }


def flat_profile_from_array_state(
    state: dict[str, Any], *, copy: bool = True
) -> FlatProfile:
    """Rebuild an array-engine :class:`FlatProfile` from
    :func:`flat_profile_to_array_state` output.

    ``copy=False`` adopts the provided arrays without copying (the
    caller relinquishes them).  The rebuilt structure is fully audited
    — including the permutation inverse, which the run-level schema
    gets for free but a raw buffer dump must prove.
    """
    import numpy as np

    if not isinstance(state, dict):
        raise CheckpointError(
            f"state must be a dict, got {type(state).__name__}"
        )
    required = {
        "version",
        "capacity",
        "allow_negative",
        "block_slots",
        "free_head",
        "n_adds",
        "n_removes",
        "base_total",
        "last_tracked",
        "ftot",
        "ttof",
        "ptrb",
        "bl",
        "bre",
        "bf",
    }
    missing = required - state.keys()
    if missing:
        raise CheckpointError(f"state is missing keys: {sorted(missing)}")
    if state["version"] != ARRAY_STATE_VERSION:
        raise CheckpointError(
            f"array state version {state['version']} unsupported "
            f"(expected {ARRAY_STATE_VERSION})"
        )
    m = int(state["capacity"])
    bn = int(state["block_slots"])
    if m < 0 or bn < 0 or bn > max(m, 1):
        raise CheckpointError(
            f"bad capacity/slot counts: m={m}, block_slots={bn}"
        )

    def adopt(key, length):
        arr = np.asarray(state[key], dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] != length:
            raise CheckpointError(
                f"{key} must be a length-{length} int64 array"
            )
        return arr.copy() if copy and arr is state[key] else arr

    profile = FlatProfile(
        0, allow_negative=bool(state["allow_negative"]), array_engine=True
    )
    profile._m = m
    profile._ftot = adopt("ftot", m)
    profile._ttof = adopt("ttof", m)
    profile._ptrb = adopt("ptrb", m)
    bl = adopt("bl", bn)
    bre = adopt("bre", bn)
    bf = adopt("bf", bn)
    slots = max(bn, 1)
    for name, src in (("_bl", bl), ("_bre", bre), ("_bf", bf)):
        buf = np.empty(slots, dtype=np.int64)
        buf[:bn] = src
        setattr(profile, name, buf)
    profile._bn = bn
    profile._free_head = int(state["free_head"])
    profile._n_adds = int(state["n_adds"])
    profile._n_removes = int(state["n_removes"])
    profile._base_total = int(state["base_total"])
    profile._last_tracked = int(state["last_tracked"])
    profile._sync_rank_tables(m)

    if m:
        ttof = profile._ttof
        if int(ttof.min()) < 0 or int(ttof.max()) >= m:
            raise CheckpointError("ttof holds out-of-range object ids")
        if not bool(
            (profile._ftot[ttof] == np.arange(m, dtype=np.int64)).all()
        ):
            raise CheckpointError("ftot is not the inverse of ttof")
    try:
        audit_profile(profile)
    except InvariantViolationError as exc:
        raise CheckpointError(
            f"restored profile failed audit: {exc}"
        ) from exc
    return profile


def save_profile(profile: SProfile, path: str | Path) -> None:
    """Write a profiler's state to ``path`` as JSON."""
    state = profile_to_state(profile)
    Path(path).write_text(json.dumps(state, separators=(",", ":")))


def load_profile(path: str | Path) -> SProfile:
    """Load a profiler previously written by :func:`save_profile`."""
    try:
        state = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    return profile_from_state(state)
