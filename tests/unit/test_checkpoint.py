"""Unit tests for checkpoint serialization."""

import json

import numpy as np
import pytest

from repro.core.checkpoint import (
    STATE_VERSION,
    flat_profile_from_state,
    load_profile,
    profile_from_state,
    profile_to_state,
    save_profile,
)
from repro.core.flat import FlatProfile
from repro.core.profile import SProfile
from repro.core.validation import audit_profile
from repro.errors import CheckpointError


class TestRoundtrip:
    def test_state_roundtrip(self, small_profile):
        state = profile_to_state(small_profile)
        restored = profile_from_state(state)
        assert restored.frequencies() == small_profile.frequencies()
        assert restored.total == small_profile.total
        assert restored.n_adds == small_profile.n_adds
        assert restored.n_removes == small_profile.n_removes
        assert restored.allow_negative == small_profile.allow_negative
        audit_profile(restored)

    def test_restored_profile_accepts_updates(self, small_profile):
        restored = profile_from_state(profile_to_state(small_profile))
        restored.add(0)
        restored.remove(1)
        assert restored.frequency(0) == 1
        audit_profile(restored)

    def test_state_is_json_safe(self, small_profile):
        state = profile_to_state(small_profile)
        redecoded = json.loads(json.dumps(state))
        restored = profile_from_state(redecoded)
        assert restored.frequencies() == small_profile.frequencies()

    def test_preserves_freq_index_setting(self):
        profile = SProfile(4, track_freq_index=True)
        profile.add(1)
        restored = profile_from_state(profile_to_state(profile))
        assert restored.blocks.tracks_freq_index

    def test_zero_capacity(self):
        restored = profile_from_state(profile_to_state(SProfile(0)))
        assert restored.capacity == 0

    @pytest.mark.parametrize(
        "cls,restore",
        [(SProfile, profile_from_state), (FlatProfile, flat_profile_from_state)],
    )
    def test_numpy_deltas_round_trip(self, cls, restore):
        # apply() with numpy deltas takes the dense rebuild, which
        # leaves numpy frequencies and counters behind.
        profile = cls(4)
        profile.apply({0: np.int64(3), 1: np.int64(1)})
        state = profile_to_state(profile)
        restored = restore(json.loads(json.dumps(state)))
        assert restored.frequencies() == [3, 1, 0, 0]
        assert restored.n_adds == 4
        state["n_adds"] = np.int64(4)
        assert type(restore(state).n_adds) is int

    def test_bulk_built_base_total_survives(self):
        profile = SProfile.from_frequencies([5, 2, 0])
        profile.add(2)
        restored = profile_from_state(profile_to_state(profile))
        assert restored.total == 8
        audit_profile(restored)


class TestFileIO:
    def test_save_load(self, small_profile, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(small_profile, path)
        restored = load_profile(path)
        assert restored.frequencies() == small_profile.frequencies()

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_profile(path)


class TestMalformedStates:
    def test_not_a_dict(self):
        with pytest.raises(CheckpointError):
            profile_from_state([1, 2, 3])

    def test_missing_keys(self, small_profile):
        state = profile_to_state(small_profile)
        del state["runs"]
        with pytest.raises(CheckpointError, match="missing"):
            profile_from_state(state)

    def test_wrong_version(self, small_profile):
        state = profile_to_state(small_profile)
        state["version"] = STATE_VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            profile_from_state(state)

    def test_bad_capacity(self, small_profile):
        state = profile_to_state(small_profile)
        state["capacity"] = -5
        with pytest.raises(CheckpointError):
            profile_from_state(state)

    def test_ttof_length_mismatch(self, small_profile):
        state = profile_to_state(small_profile)
        state["ttof"] = state["ttof"][:-1]
        with pytest.raises(CheckpointError):
            profile_from_state(state)

    def test_ttof_not_a_permutation(self, small_profile):
        state = profile_to_state(small_profile)
        state["ttof"] = [0] * state["capacity"]
        with pytest.raises(CheckpointError):
            profile_from_state(state)

    @pytest.mark.parametrize("value", ["x", None, 1.5, True, -1])
    def test_bad_counter(self, small_profile, value):
        state = profile_to_state(small_profile)
        state["n_removes"] = value
        with pytest.raises(CheckpointError):
            profile_from_state(state)

    def test_runs_with_gap(self, small_profile):
        state = profile_to_state(small_profile)
        state["runs"] = state["runs"][1:]
        with pytest.raises(CheckpointError):
            profile_from_state(state)

    def test_runs_with_bad_frequencies(self, small_profile):
        state = profile_to_state(small_profile)
        runs = [list(run) for run in state["runs"]]
        runs[0][2] = runs[-1][2] + 1  # break ascending order
        state["runs"] = runs
        with pytest.raises(CheckpointError):
            profile_from_state(state)
