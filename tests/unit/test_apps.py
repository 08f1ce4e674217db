"""Unit tests for TopKTracker, Leaderboard and MedianMonitor."""

import pytest

from repro.apps.leaderboard import Leaderboard
from repro.apps.median_service import MedianMonitor, QuantileAlert
from repro.apps.topk_tracker import TopKChange, TopKTracker
from repro.errors import CapacityError, FrequencyUnderflowError


class TestTopKTracker:
    def test_board_ordering(self):
        tracker = TopKTracker(2)
        for video in ["a", "b", "a", "c", "c", "c"]:
            tracker.like(video)
        board = tracker.board()
        assert [entry.obj for entry in board] == ["c", "a"]
        assert [entry.frequency for entry in board] == [3, 2]

    def test_change_reports_enter_and_exit(self):
        tracker = TopKTracker(1)
        change = tracker.like("a")
        assert change.entered == ("a",)
        tracker.like("b")
        change = tracker.like("b")
        assert change.entered == ("b",)
        assert change.exited == ("a",)

    def test_noop_change(self):
        tracker = TopKTracker(2)
        tracker.like("a")
        change = tracker.like("a")
        assert change.is_noop
        assert change == TopKChange(entered=(), exited=())

    def test_callbacks_fire_only_on_change(self):
        tracker = TopKTracker(1)
        changes = []
        tracker.on_change(changes.append)
        tracker.like("a")      # enters
        tracker.like("a")      # no membership change
        tracker.like("b")
        tracker.like("b")      # ties a: board may or may not change
        tracker.like("b")      # strictly overtakes a: must change
        assert changes[0].entered == ("a",)
        assert changes[-1].entered == ("b",)
        assert changes[-1].exited == ("a",)
        assert len(changes) <= 3

    def test_unlike(self):
        tracker = TopKTracker(1)
        tracker.like("a")
        tracker.like("a")
        tracker.like("b")
        change = tracker.unlike("a")
        assert change.is_noop  # a at 1 still ties b; board keeps a or b
        tracker.unlike("a")
        assert tracker.board()[0].obj == "b"

    def test_update_dispatch(self):
        tracker = TopKTracker(2)
        tracker.update("x", True)
        tracker.update("x", False)
        assert tracker.frequency("x") == 0

    def test_k_validation(self):
        with pytest.raises(CapacityError):
            TopKTracker(0)

    def test_strict_mode(self):
        tracker = TopKTracker(2, allow_negative=False)
        with pytest.raises(FrequencyUnderflowError):
            tracker.unlike("never")

    def test_repr(self):
        assert "TopKTracker" in repr(TopKTracker(3))


class TestLeaderboard:
    def test_scores(self):
        board = Leaderboard()
        board.like("x", 3)
        board.dislike("y", 2)
        assert board.score("x") == 3
        assert board.score("y") == -2
        assert board.score("unknown") == 0

    def test_top_bottom(self):
        board = Leaderboard()
        board.like("x", 3)
        board.like("z")
        board.dislike("y", 2)
        assert [entry.obj for entry in board.top(2)] == ["x", "z"]
        assert [entry.obj for entry in board.bottom(2)] == ["y", "z"]

    def test_leader(self):
        board = Leaderboard()
        assert board.leader() is None
        board.like("x")
        leader = board.leader()
        assert leader.obj == "x" and leader.frequency == 1

    def test_median_score(self):
        board = Leaderboard()
        board.like("a", 5)
        board.like("b", 1)
        board.dislike("c", 1)
        assert board.median_score() == 1

    def test_percentile(self):
        board = Leaderboard()
        board.like("a", 3)
        board.like("b", 1)
        board.dislike("c", 2)
        assert board.score_percentile("a") == pytest.approx(2 / 3)
        assert board.score_percentile("c") == 0.0
        assert board.score_percentile("ghost") == 0.0

    def test_render(self):
        board = Leaderboard()
        board.like("cat", 2)
        text = board.render(5)
        assert "cat" in text and "rank" in text

    def test_negative_times_rejected(self):
        board = Leaderboard()
        with pytest.raises(CapacityError):
            board.like("x", -1)
        with pytest.raises(CapacityError):
            board.dislike("x", -1)

    def test_container_protocol(self):
        board = Leaderboard()
        board.like("x")
        assert "x" in board
        assert len(board) == 1
        assert "Leaderboard" in repr(board)


class TestMedianMonitor:
    def test_median_and_quantiles(self):
        monitor = MedianMonitor(4)
        monitor.record(0)
        monitor.record(0)
        assert monitor.median() == 0
        assert monitor.quantile(1.0) == 2
        assert monitor.spread() == (0, 2)

    def test_alert_fires_on_transition_only(self):
        monitor = MedianMonitor(4)
        fired = []
        monitor.add_alert(
            QuantileAlert("hot", quantile=1.0, threshold=1),
            lambda alert, value: fired.append((alert.name, value)),
        )
        monitor.record(0)           # max 1, not > 1
        monitor.record(0)           # max 2 -> fires
        monitor.record(0)           # still breached -> no refire
        assert fired == [("hot", 2)]

    def test_alert_rearms_after_recovery(self):
        monitor = MedianMonitor(4)
        fired = []
        monitor.add_alert(
            QuantileAlert("hot", quantile=1.0, threshold=1),
            lambda alert, value: fired.append(value),
        )
        monitor.record(0)
        monitor.record(0)            # fire at 2
        monitor.record(0, is_add=False)   # back to 1 (not breached)
        monitor.record(0)            # fire again at 2
        assert fired == [2, 2]

    def test_below_direction(self):
        monitor = MedianMonitor(4)
        fired = []
        monitor.add_alert(
            QuantileAlert("cold", quantile=0.0, threshold=0,
                          direction="below"),
            lambda alert, value: fired.append(value),
        )
        monitor.record(1, is_add=False)
        assert fired == [-1]

    def test_duplicate_alert_name_rejected(self):
        monitor = MedianMonitor(4)
        monitor.add_alert(
            QuantileAlert("a", quantile=0.5, threshold=1), lambda *a: None
        )
        with pytest.raises(CapacityError):
            monitor.add_alert(
                QuantileAlert("a", quantile=0.9, threshold=2), lambda *a: None
            )

    def test_alert_validation(self):
        with pytest.raises(CapacityError):
            QuantileAlert("bad", quantile=2.0, threshold=1)
        with pytest.raises(CapacityError):
            QuantileAlert("bad", quantile=0.5, threshold=1,
                          direction="sideways")

    def test_repr(self):
        assert "MedianMonitor" in repr(MedianMonitor(4))


class TestClickAnalytics:
    def _site(self, **kwargs):
        from repro.apps.click_analytics import ClickAnalytics

        return ClickAnalytics(["home", "docs", "blog", "about"], **kwargs)

    def test_record_and_query(self):
        site = self._site()
        site.record_batch(["home", "docs", "home", "docs", "home"])
        assert site.views("home") == 3
        assert site.trending(2) == [("home", 3), ("docs", 2)]
        assert site.total_views == 5
        assert site.median_views() == 0  # lower median of [0, 0, 2, 3]

    def test_auto_flush_at_batch_size(self):
        site = self._site(batch_size=3)
        site.record("home")
        site.record("home")
        assert site.pending == 2
        site.record("docs")
        assert site.pending == 0
        assert site.profiler.batches_ingested == 1

    def test_expire_slides_the_window(self):
        site = self._site()
        site.record_batch(["home", "home", "docs"])
        site.expire(["home"])
        assert site.views("home") == 1

    def test_rejected_flush_keeps_buffer(self):
        from repro.errors import FrequencyUnderflowError

        site = self._site()
        site.record("home")
        site.expire(["home", "home"])
        with pytest.raises(FrequencyUnderflowError):
            site.flush()
        assert site.pending == 3  # nothing lost, nothing applied
        assert site.profiler.total == 0
        assert site.discard_pending() == 3
        assert site.views("home") == 0

    def test_duplicate_catalog_rejected(self):
        from repro.apps.click_analytics import ClickAnalytics

        with pytest.raises(CapacityError):
            ClickAnalytics(["a", "a"])

    def test_unknown_page_rejected_without_buffering(self):
        from repro.errors import UnknownObjectError

        site = self._site()
        with pytest.raises(UnknownObjectError):
            site.record("nope")
        assert site.pending == 0

    def test_checkpoint_round_trip(self):
        from repro.apps.click_analytics import ClickAnalytics

        site = self._site()
        site.record_batch(["home", "blog", "blog"])
        restored = ClickAnalytics.restore(site.checkpoint())
        assert restored.trending(2) == site.trending(2)
        assert restored.total_views == 3
        restored.record("about")
        assert restored.views("about") == 1

    def test_restore_folds_an_earlier_sharded_checkpoint(self):
        from repro.apps.click_analytics import ClickAnalytics
        from repro.core.checkpoint import profile_to_state
        from repro.core.flat import FlatProfile

        # Earlier releases hosted the site on two flat shard cores:
        # page g (dense id) at local id g // 2 of shard g % 2.
        def shard(freqs):
            return profile_to_state(
                FlatProfile.from_frequencies(freqs, allow_negative=False)
            )

        state = {
            "batch_size": 8,
            "profiler": {
                "version": 1, "backend": "sharded", "keys": "hashable",
                "strict": True, "capacity": 3, "shards": 2,
                "catalog": ["home", "docs", "blog"], "batches": 1,
                "events": 4, "profile": [shard([3, 1]), shard([0])],
                "core": "flat",
            },
        }
        restored = ClickAnalytics.restore(state)
        assert restored.trending(3) == [
            ("home", 3), ("blog", 1), ("docs", 0)
        ]
        assert restored.profiler.backend_name == "flat"
        assert restored.checkpoint()["profiler"]["shards"] is None

    def test_malformed_checkpoint_rejected(self):
        from repro.apps.click_analytics import ClickAnalytics
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            ClickAnalytics.restore({"catalog": ["a"]})
        state = self._site().checkpoint()
        state["profiler"]["catalog"].append("extra")
        with pytest.raises(CheckpointError):
            ClickAnalytics.restore(state)

    def test_restore_rejects_duplicate_catalog(self):
        from repro.apps.click_analytics import ClickAnalytics
        from repro.errors import CheckpointError

        state = ClickAnalytics(["a", "b", "c"]).checkpoint()
        # Same length, fewer distinct pages.
        state["profiler"]["catalog"] = ["a", "a", "b"]
        with pytest.raises(CheckpointError):
            ClickAnalytics.restore(state)

    def test_restore_rejects_truncated_catalog(self):
        from repro.apps.click_analytics import ClickAnalytics
        from repro.errors import CheckpointError

        site = ClickAnalytics(["a", "b", "c"])
        site.record_batch(["a", "a", "b"])
        state = site.checkpoint()
        state["profiler"]["catalog"].pop()  # drop a zero-view page
        with pytest.raises(CheckpointError):
            ClickAnalytics.restore(state)
        state = site.checkpoint()
        state["profiler"]["catalog"] = ["a", "c"]  # drop a counted page
        with pytest.raises(CheckpointError):
            ClickAnalytics.restore(state)
