"""Partitioned checkpoints of earlier releases load folded into one core.

``tests/data/legacy_sharded_states.json`` holds states written before
the in-process sharded backend was removed: sharded flat and
block-object cores (dense, non-strict and strict), one hashable
sharded state, one state of the multi-process ``parallel`` engine and
one cluster router ``checkpoint`` answer (which had the sharded
layout).  Beside each state sits what that release answered for it:
frequencies, histogram, mode frequency and counters.  Each must load
with those answers, as one ``flat`` (flat cores) or ``exact``
(block-object cores) core that writes the single-core form.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.api import Profiler
from repro.core.checkpoint import fold_partition_states, profile_to_state
from repro.core.flat import FlatProfile
from repro.core.validation import audit_profile
from repro.errors import CheckpointError, FrequencyUnderflowError

FIXTURE = Path(__file__).parent.parent / "data" / "legacy_sharded_states.json"
STATES = json.loads(FIXTURE.read_text())
DENSE = sorted(name for name in STATES if name != "sharded_hashable")


def legacy(name):
    return copy.deepcopy(STATES[name]["state"])


@pytest.mark.parametrize("name", DENSE)
def test_loads_with_the_answers_it_was_written_with(name):
    expect = STATES[name]["expect"]
    profiler = Profiler.from_state(legacy(name))
    assert profiler.frequencies() == expect["frequencies"]
    assert profiler.histogram() == [tuple(h) for h in expect["histogram"]]
    assert profiler.mode().frequency == expect["mode_frequency"]
    assert profiler.total == expect["total"]
    assert profiler.n_events == expect["n_events"]
    assert profiler.backend.n_adds == expect["n_adds"]
    assert profiler.backend.n_removes == expect["n_removes"]
    assert profiler.batches_ingested == expect["batches"]
    assert profiler.events_ingested == expect["events"]
    audit_profile(profiler.backend)


@pytest.mark.parametrize("name", sorted(STATES))
def test_writes_the_single_core_form(name):
    state = legacy(name)
    profiler = Profiler.from_state(state)
    core = state.get("core", "sprofile")
    assert profiler.backend_name == ("flat" if core == "flat" else "exact")
    out = json.loads(json.dumps(profiler.to_state()))
    assert out["shards"] is None
    assert "core" not in out
    assert isinstance(out["profile"], dict)
    assert out["profile"]["capacity"] == state["capacity"]
    for key in ("version", "keys", "strict", "capacity", "catalog",
                "batches", "events"):
        assert out[key] == state[key], key
    assert Profiler.from_state(out).to_state() == out


@pytest.mark.parametrize("name", DENSE)
def test_strictness_survives_the_fold(name):
    state = legacy(name)
    profiler = Profiler.from_state(state)
    assert profiler.strict is state["strict"]
    assert profiler.backend.allow_negative is not state["strict"]
    if state["strict"]:
        low = min(range(state["capacity"]), key=profiler.frequency)
        with pytest.raises(FrequencyUnderflowError):
            profiler.ingest({low: -(profiler.frequency(low) + 1)})


@pytest.mark.parametrize("name", DENSE)
def test_restored_core_keeps_ingesting(name):
    profiler = Profiler.from_state(legacy(name))
    before = profiler.frequencies()
    profiler.ingest({0: 3, 1: 1})
    after = profiler.frequencies()
    assert after[0] == before[0] + 3
    assert after[1] == before[1] + 1
    assert after[2:] == before[2:]
    audit_profile(profiler.backend)


def test_hashable_state_names_no_phantom():
    # Written over 4 slots in 2 shards with keys "a" and 3 registered:
    # the sharded backend named the two unclaimed slots by dense id.
    expect = STATES["sharded_hashable"]["expect"]
    profiler = Profiler.from_state(legacy("sharded_hashable"))
    assert len(profiler) == 2 and profiler.capacity == 4
    assert profiler.frequencies() == expect["frequencies"][:2]
    assert profiler.top_k(4) == [("a", 2), (3, -1)]
    assert profiler.objects_with_frequency(0) == []
    assert list(profiler.iter_sorted()) == [(3, -1), ("a", 2)]
    assert profiler.histogram() == [(-1, 1), (2, 1)]
    assert profiler.mode().frequency == expect["mode_frequency"]
    assert profiler.total == expect["total"]
    # The two free slots still take new keys, and no more.
    profiler.ingest([("b", 1), ("c", 1)])
    assert len(profiler) == 4


def test_parallel_states_host_flat_cores():
    state = legacy("sharded_sprofile")
    state["backend"] = "parallel"
    with pytest.raises(CheckpointError, match="flat cores"):
        Profiler.from_state(state)


def test_states_without_a_core_field_hold_block_object_cores():
    state = legacy("sharded_sprofile")
    del state["core"]  # written before flat shard cores existed
    profiler = Profiler.from_state(state)
    assert profiler.backend_name == "exact"
    assert profiler.frequencies() == STATES["sharded_sprofile"]["expect"][
        "frequencies"
    ]


#: Corruptions of the partitioned envelope (the part list and count).
TAMPERS = {
    "shards-str": lambda s: s.update(shards="2"),
    "shards-zero": lambda s: s.update(shards=0),
    "shards-none": lambda s: s.update(shards=None, backend="sharded"),
    "part-count": lambda s: s.update(profile=s["profile"][:-1]),
    "profile-dict": lambda s: s.update(profile=s["profile"][0]),
    "core-name": lambda s: s.update(core="bogus"),
    "capacity-mismatch": lambda s: s.update(capacity=s["capacity"] + 2),
    "mixed-allow-negative": lambda s: s["profile"][0].update(
        allow_negative=not s["profile"][0]["allow_negative"]
    ),
    "strict-flip": lambda s: s.update(strict=not s["strict"]),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
@pytest.mark.parametrize("name", ["sharded_flat", "sharded_sprofile"])
def test_tampered_partitioned_states_rejected(name, tamper):
    # Flat cores and block-object cores fold through separate installs.
    state = legacy(name)
    TAMPERS[tamper](state)
    with pytest.raises(CheckpointError):
        Profiler.from_state(state)


def test_truncated_hashable_catalog_rejected():
    state = legacy("sharded_hashable")
    state["catalog"].pop()  # key 3 still holds counted mass
    with pytest.raises(CheckpointError, match="uncataloged"):
        Profiler.from_state(state)


def test_fold_interleaves_parts_and_carries_counters():
    parts = [FlatProfile(3), FlatProfile(2)]  # ids 0, 2, 4 | 1, 3
    parts[0].apply({0: 2, 2: 5})
    parts[1].apply({1: -1})
    parts[1].add(0)
    folded = fold_partition_states(
        [profile_to_state(p) for p in parts], 5, flat=True
    )
    assert folded.frequencies() == [2, 1, 0, -1, 5]
    assert folded.n_adds == sum(p.n_adds for p in parts)
    assert folded.n_removes == sum(p.n_removes for p in parts)
    assert folded.total == 7
    with pytest.raises(CheckpointError, match="share"):
        fold_partition_states(
            [profile_to_state(p) for p in parts], 6, flat=True
        )
