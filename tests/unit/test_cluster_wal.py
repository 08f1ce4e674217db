"""Unit tests for the durable router WAL (`repro.cluster.journal`).

The WAL's contract is narrow and absolute: every record appended and
synced before a crash is recovered byte-exactly; a torn tail (the one
artifact a mid-write crash can leave) is truncated silently; any other
corruption refuses loudly; 2PC prepare entries surface only with a
durable commit decision behind them; segments prune once snapshots
cover them.
"""

import asyncio
import io
import json
import os
import struct
import time
import zlib

import pytest

from repro.api import Profiler
from repro.cluster import ClusterRouter
from repro.cluster.journal import (
    RouterWal,
    WalTail,
    _atomic_write_json,
    _pack_record,
    _read_json,
)
from repro.errors import CheckpointError, FencedWriterError, WalCommitError
from repro.server import AsyncProfileClient
from repro.testing.faults import FaultSchedule, arm, disarm
from repro.testing.replicas import InProcessSupervisor


def write_entries(wal, spec):
    """spec: list of (partition, seq, ids, deltas)."""
    for p, seq, ids, deltas in spec:
        wal.append_entry(p, seq, ids, deltas)
    wal.sync()


class TestRoundTrip:
    def test_entries_recover_exactly(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            write_entries(
                wal,
                [
                    (0, 1, [3, 5], [2, -1]),
                    (1, 2, [0], [7]),
                    (0, 3, [9], [1]),
                ],
            )
        recovery = RouterWal(tmp_path).load()
        assert recovery.last_seq == 3
        assert sorted(recovery.entries) == [0, 1]
        p0 = recovery.entries[0]
        assert [(e.seq, list(e.ids), list(e.deltas)) for e in p0] == [
            (1, [3, 5], [2, -1]),
            (3, [9], [1]),
        ]
        p1 = recovery.entries[1]
        assert [(e.seq, list(e.ids), list(e.deltas)) for e in p1] == [
            (2, [0], [7])
        ]

    def test_empty_dir_loads_empty(self, tmp_path):
        recovery = RouterWal(tmp_path / "fresh").load()
        assert recovery.last_seq == 0
        assert recovery.entries == {}
        assert recovery.snapshots == {}

    def test_load_is_idempotent(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(0, 1, [1], [1])])
        first = RouterWal(tmp_path).load()
        second = RouterWal(tmp_path).load()
        assert first.last_seq == second.last_seq == 1
        assert len(second.entries[0]) == 1

    def test_negative_deltas_and_large_seqs(self, tmp_path):
        big = 2**40
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(2, big, [7], [-(2**33)])])
        recovery = RouterWal(tmp_path).load()
        entry = recovery.entries[2][0]
        assert entry.seq == big
        assert list(entry.deltas) == [-(2**33)]


class TestSnapshots:
    def test_snapshot_skips_covered_entries(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            write_entries(
                wal, [(0, 1, [1], [1]), (0, 2, [2], [1]), (0, 3, [3], [1])]
            )
            wal.note_snapshot(0, 2, {"fake": "state", "seq": 2})
        recovery = RouterWal(tmp_path).load()
        assert recovery.snapshot_seqs == {0: 2}
        assert recovery.snapshots[0] == {"fake": "state", "seq": 2}
        # Entries at or below the snapshot watermark are already inside
        # the snapshot; only seq 3 replays.
        assert [e.seq for e in recovery.entries[0]] == [3]
        assert recovery.last_seq == 3

    def test_snapshot_overwrites_previous(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            wal.note_snapshot(1, 5, {"v": 1})
            wal.note_snapshot(1, 9, {"v": 2})
        recovery = RouterWal(tmp_path).load()
        assert recovery.snapshots[1] == {"v": 2}
        assert recovery.snapshot_seqs[1] == 9

    def test_snapshot_file_is_compact_json(self, tmp_path):
        state = {"profile": {"freq": list(range(40))}, "name": "caf\u00e9"}
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(0, 1, [1], [1]), (0, 2, [2], [1])])
            wal.note_snapshot(0, 1, state)
        path = next(tmp_path.glob("snapshot-p*.json"))
        payload = {"partition": 0, "snapshot_seq": 1, "state": state}
        text = json.dumps(payload, separators=(",", ":"))
        assert path.read_text(encoding="utf-8") == text
        # Byte-identical to the streaming json.dump it replaced.
        streamed = io.StringIO()
        json.dump(payload, streamed, separators=(",", ":"))
        assert streamed.getvalue() == text
        assert _read_json(path) == payload
        recovery = RouterWal(tmp_path).load()
        assert recovery.snapshots[0] == state
        assert [e.seq for e in recovery.entries[0]] == [2]

    def test_malformed_snapshot_refuses(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            wal.note_snapshot(0, 1, {"v": 1})
        snap = next(tmp_path.glob("snapshot-p*.json"))
        snap.write_text("{not json")
        with pytest.raises(CheckpointError):
            RouterWal(tmp_path).load()


class TestTornAndCorrupt:
    def _last_segment(self, tmp_path):
        return sorted(tmp_path.glob("wal-*.log"))[-1]

    def test_torn_tail_truncated(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(0, 1, [1], [1]), (0, 2, [2], [1])])
        seg = self._last_segment(tmp_path)
        data = seg.read_bytes()
        seg.write_bytes(data[:-3])  # tear the final record mid-payload
        recovery = RouterWal(tmp_path).load()
        # The torn record (seq 2) was never synced-and-acked whole in
        # this scenario's framing; it drops, the intact prefix stays.
        assert [e.seq for e in recovery.entries[0]] == [1]
        assert recovery.last_seq == 1
        # The truncation is persistent: the file now ends at the last
        # good record and appending resumes cleanly.
        wal2 = RouterWal(tmp_path)
        wal2.load()
        wal2.append_entry(0, 2, [9], [9])
        wal2.sync()
        wal2.close()
        final = RouterWal(tmp_path).load()
        assert [e.seq for e in final.entries[0]] == [1, 2]

    def test_mid_segment_corruption_refuses(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            write_entries(
                wal, [(0, 1, [1], [1]), (0, 2, [2], [1]), (0, 3, [3], [1])]
            )
        seg = self._last_segment(tmp_path)
        data = bytearray(seg.read_bytes())
        # Flip a payload byte of the FIRST record (well before the
        # tail): CRC mismatch that truncation must NOT paper over.
        # The segment header is magic + u64 epoch (16 bytes), the
        # frame header 8 more; byte 30 sits inside the first payload.
        data[30] ^= 0xFF
        seg.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            RouterWal(tmp_path).load()

    def test_bad_magic_refuses(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(0, 1, [1], [1])])
        seg = self._last_segment(tmp_path)
        seg.write_bytes(b"XXXXXXXX" + seg.read_bytes()[8:])
        with pytest.raises(CheckpointError):
            RouterWal(tmp_path).load()

    def test_truncated_frame_header_in_last_segment(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(0, 1, [1], [1])])
        seg = self._last_segment(tmp_path)
        seg.write_bytes(seg.read_bytes() + struct.pack("<I", 99))
        recovery = RouterWal(tmp_path).load()
        assert [e.seq for e in recovery.entries[0]] == [1]


class TestMalformedRecords:
    """A frame can pass its CRC and still not be a record: too short
    for its header, the wrong length for its count, or empty.  Both
    readers refuse those typed; a zero-filled tail is a torn write."""

    def _zero_filled(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(0, 1, [1, 2], [1, 1])])
        seg = sorted(tmp_path.glob("wal-*.log"))[-1]
        clean = seg.read_bytes()
        # crc32(b"") == 0: every all-zero frame header passes its CRC.
        seg.write_bytes(clean + bytes(4096))
        return seg, clean

    def test_load_truncates_a_zero_filled_tail(self, tmp_path):
        seg, clean = self._zero_filled(tmp_path)
        wal = RouterWal(tmp_path)
        recovery = wal.load()
        assert [e.seq for e in recovery.entries[0]] == [1]
        assert seg.read_bytes() == clean
        write_entries(wal, [(0, 2, [3], [1])])
        wal.close()
        again = RouterWal(tmp_path).load()
        assert [e.seq for e in again.entries[0]] == [1, 2]

    def test_tail_does_not_consume_a_zero_filled_tail(self, tmp_path):
        seg, clean = self._zero_filled(tmp_path)
        tail = WalTail(tmp_path, write_cursor=False)
        assert tail.poll() == 1
        assert tail.poll() == 0
        assert [e.seq for e in tail.state.entries[0]] == [1]
        index = int(seg.stem.split("-")[1])
        assert tail.cuts() == {index: len(clean)}

    def test_zero_filled_sealed_segment_refuses(self, tmp_path):
        seg, _clean = self._zero_filled(tmp_path)
        (tmp_path / "wal-00000099.log").write_bytes(
            b"RWAL0002" + bytes(8)
        )
        with pytest.raises(CheckpointError, match="sealed"):
            RouterWal(tmp_path).load()

    @staticmethod
    def _frame(payload):
        return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"\x01",
            b"\x01" + bytes(10),
            struct.pack("<BIQI", 1, 0, 2, 3) + bytes(8),
            struct.pack("<BQI", 3, 2, 4) + bytes(4),
            struct.pack("<BIIQ", 5, 1, 2, 2)[:-1],
            struct.pack("<BIQ", 6, 0, 2) + b"\x00",
            b"\x63" + bytes(20),
        ],
        ids=[
            "empty-then-record",
            "type-only",
            "short-entry-head",
            "entry-count-mismatch",
            "decision-count-mismatch",
            "short-rescale",
            "long-snapshot",
            "unknown-type",
        ],
    )
    def test_both_readers_refuse_typed(self, tmp_path, payload):
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(0, 1, [1], [1])])
        seg = sorted(tmp_path.glob("wal-*.log"))[-1]
        good = self._frame(_pack_record(("entry", 2, 0, [2], [1], False)))
        seg.write_bytes(seg.read_bytes() + self._frame(payload) + good)
        with pytest.raises(CheckpointError):
            WalTail(tmp_path, write_cursor=False).poll()
        with pytest.raises(CheckpointError):
            RouterWal(tmp_path).load()


class TestTailTape:
    def test_tail_tape_stays_within_one_snapshot_interval(self, tmp_path):
        # 20 rounds of 50 entries, each round snapshotted at its last
        # seq, with a tail poll after each round: SNAPSHOT records
        # reach the tail through the log and drop what they cover.
        wal = RouterWal(tmp_path)
        tail = WalTail(tmp_path, write_cursor=False)
        seq = 0
        for _round in range(20):
            for _ in range(50):
                seq += 1
                wal.append_entry(0, seq, [seq % 7], [1])
            wal.sync()
            wal.note_snapshot(0, seq, {"seq": seq})
            tail.poll()
            # At most this round's entries: the previous round's
            # SNAPSHOT record rode this round's sync.
            tape = tail.state.entries.get(0, [])
            assert len(tape) <= 50
            assert all(e.seq > seq - 50 for e in tape)
            assert tail.state.snapshot_seqs.get(0, 0) >= seq - 50
        wal.sync()  # the last SNAPSHOT record rides a sync of its own
        tail.poll()
        assert tail.state.entries == {}
        assert tail.state.snapshot_seqs == {0: seq}
        wal.close()


class TestUnwrittenSegmentHeader:
    """A writer creates a segment and its header reaches the file with
    the first flush, so a reader can meet an empty file or a prefix of
    the header.  That means "not written yet", never corruption; a
    head that is not such a prefix is still refused."""

    def _segment(self, tmp_path):
        src = tmp_path / "src"
        with RouterWal(src) as wal:
            write_entries(wal, [(0, 1, [1, 2], [1, 1])])
        seg = next(src.glob("wal-*.log"))
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        return wal_dir / seg.name, seg.read_bytes()

    @pytest.mark.parametrize(
        "cut",
        [0, 4, 8, 12],
        ids=["empty", "partial-magic", "magic-only", "partial-epoch"],
    )
    def test_tail_waits_for_the_header(self, tmp_path, cut):
        seg, data = self._segment(tmp_path)
        seg.write_bytes(data[:cut])
        tail = WalTail(seg.parent, write_cursor=False)
        assert tail.poll() == 0
        assert tail.poll() == 0  # no offset was cached: still waiting
        seg.write_bytes(data)  # the writer's first flush lands
        assert tail.poll() == 1
        assert tail.state.last_seq == 1
        assert [e.seq for e in tail.state.entries[0]] == [1]

    @pytest.mark.parametrize(
        "head",
        [b"XXXXXXXX" + bytes(8), b"RWAL0009" + bytes(8), b"RWAL0009", b"XX"],
        ids=["wrong-magic", "wrong-version", "short-wrong-version", "junk"],
    )
    def test_tail_refuses_a_wrong_magic(self, tmp_path, head):
        seg, _data = self._segment(tmp_path)
        seg.write_bytes(head)
        tail = WalTail(seg.parent, write_cursor=False)
        with pytest.raises(CheckpointError, match="bad magic"):
            tail.poll()

    def test_cold_load_drops_a_segment_never_flushed(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(0, 1, [1], [1])])
        # The next writer died right after creating its segment.
        orphan = tmp_path / "wal-00000099.log"
        orphan.write_bytes(b"RWAL")
        wal = RouterWal(tmp_path)
        recovery = wal.load()
        assert [e.seq for e in recovery.entries[0]] == [1]
        assert not orphan.exists()
        write_entries(wal, [(0, 2, [2], [1])])
        wal.close()
        again = RouterWal(tmp_path).load()
        assert [e.seq for e in again.entries[0]] == [1, 2]


class TestTwoPhase:
    def test_committed_prepared_entries_replay(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            wal.append_entry(0, 1, [1], [1], prepared=True)
            wal.append_entry(1, 1, [0], [2], prepared=True)
            wal.sync()
            wal.append_decision(1, [0, 1], commit=True)
            wal.sync()
        recovery = RouterWal(tmp_path).load()
        assert [e.seq for e in recovery.entries[0]] == [1]
        assert [e.seq for e in recovery.entries[1]] == [1]

    def test_aborted_prepared_entries_drop(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            wal.append_entry(0, 1, [1], [1], prepared=True)
            wal.append_entry(1, 1, [0], [2], prepared=True)
            wal.append_decision(1, [0, 1], commit=False)
            wal.sync()
        recovery = RouterWal(tmp_path).load()
        assert recovery.entries == {}
        # The seq is still burned: recovery must never reuse it.
        assert recovery.last_seq == 1

    def test_undecided_prepared_entries_drop(self, tmp_path):
        # Crash between prepare and the decision record: no replica
        # applied anything (commits are sent only after the decision
        # is durable), so recovery drops the transaction entirely.
        with RouterWal(tmp_path) as wal:
            wal.append_entry(0, 1, [1], [1], prepared=True)
            wal.append_entry(1, 1, [0], [2], prepared=True)
            wal.sync()
        recovery = RouterWal(tmp_path).load()
        assert recovery.entries == {}
        assert recovery.last_seq == 1

    def test_decided_and_plain_interleave(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            wal.append_entry(0, 1, [1], [1])
            wal.append_entry(0, 2, [2], [1], prepared=True)
            wal.append_decision(2, [0], commit=True)
            wal.append_entry(0, 3, [3], [1], prepared=True)  # undecided
            wal.sync()
        recovery = RouterWal(tmp_path).load()
        assert [e.seq for e in recovery.entries[0]] == [1, 2]
        assert recovery.last_seq == 3


class TestSegments:
    def test_rotation_and_prune(self, tmp_path):
        wal = RouterWal(tmp_path, segment_bytes=4096)
        for seq in range(1, 40):
            # One sync per append, as the router syncs once per flush:
            # rotation happens between syncs.
            wal.append_entry(0, seq, [seq % 7] * 100, [1] * 100)
            wal.sync()
        segments = sorted(tmp_path.glob("wal-*.log"))
        assert len(segments) > 1
        wal.note_snapshot(0, 39, {"v": 1})
        # Every sealed segment is covered; only the live one survives.
        remaining = sorted(tmp_path.glob("wal-*.log"))
        assert len(remaining) == 1
        wal.close()
        recovery = RouterWal(tmp_path).load()
        assert recovery.entries.get(0, []) == []
        assert recovery.snapshot_seqs == {0: 39}

    def test_prune_spares_uncovered_segments(self, tmp_path):
        wal = RouterWal(tmp_path, segment_bytes=4096)
        for seq in range(1, 40):
            wal.append_entry(seq % 2, seq, [0] * 100, [1] * 100)
            wal.sync()
        before = len(sorted(tmp_path.glob("wal-*.log")))
        # Snapshot covers only partition 0: segments holding partition
        # 1 entries past seq 0 must all survive.
        wal.note_snapshot(0, 39, {"v": 1})
        wal.close()
        recovery = RouterWal(tmp_path).load()
        assert before >= 2
        assert [e.seq for e in recovery.entries[1]] == list(range(1, 40, 2))

    def test_a_flush_reaches_the_file_whole_at_sync(self, tmp_path):
        wal = RouterWal(tmp_path, segment_bytes=4096)
        write_entries(wal, [(0, 1, [1], [1])])
        synced = wal.describe()["bytes"]
        seg = sorted(tmp_path.glob("wal-*.log"))[-1]
        size = seg.stat().st_size
        # A flush far past the rotation threshold: nothing reaches the
        # file before sync, and it all lands in one segment.
        for seq in range(2, 12):
            wal.append_entry(seq % 2, seq, [0] * 100, [1] * 100)
        assert seg.stat().st_size == size
        wal.sync()
        assert sorted(tmp_path.glob("wal-*.log")) == [seg]
        assert seg.stat().st_size == size + wal.describe()["bytes"] - synced
        # Past the threshold now, so the next flush opens a segment.
        write_entries(wal, [(0, 12, [1], [1])])
        assert len(list(tmp_path.glob("wal-*.log"))) == 2
        wal.close()

    def test_abandon_drops_unsynced_records(self, tmp_path):
        wal = RouterWal(tmp_path)
        write_entries(wal, [(0, 1, [1], [1])])
        # Half a wire batch appended (partition 0 of 2), then death.
        wal.append_entry(0, 2, [2], [1])
        wal.abandon()
        recovery = RouterWal(tmp_path).load()
        assert recovery.last_seq == 1
        assert [e.seq for e in recovery.entries[0]] == [1]

    def test_describe_counters(self, tmp_path):
        wal = RouterWal(tmp_path, segment_bytes=1 << 20)
        wal.append_entry(0, 1, [1], [1])
        wal.sync()
        wal.sync()  # clean: no-op
        info = wal.describe()
        assert info["segments"] == 1
        assert info["records"] == 1
        assert info["syncs"] == 1
        assert info["fsync"] is True
        wal.close()

    def test_nosync_mode_still_recovers_after_close(self, tmp_path):
        with RouterWal(tmp_path, sync=False) as wal:
            write_entries(wal, [(0, 1, [1], [1])])
        recovery = RouterWal(tmp_path).load()
        assert [e.seq for e in recovery.entries[0]] == [1]


class TestPruneVsTailReader:
    """Prune racing an active standby tail: fresh cursors pin segments;
    stale cursors stop pinning; the tail never loses a record either
    way."""

    def _fill(self, wal, start, stop):
        for seq in range(start, stop):
            wal.append_entry(0, seq, [seq % 7] * 100, [1] * 100)
        wal.sync()

    def test_fresh_cursor_defers_prune(self, tmp_path):
        wal = RouterWal(tmp_path, segment_bytes=4096)
        self._fill(wal, 1, 20)
        tail = WalTail(tmp_path, reader_id="standby")
        tail.poll()  # cursor now sits on the current live segment
        pinned = wal.reader_cursors()[0]["segment"]
        # Keep writing: rotation moves the live segment well past the
        # cursor, then a covering snapshot makes everything prunable.
        self._fill(wal, 20, 60)
        wal.note_snapshot(0, 59, {"v": 1})  # auto-prunes
        survivors = [m.index for m in wal._segments]
        # Everything the tail has not finished reading survives ...
        assert all(index >= pinned for index in survivors)
        assert wal.segment_count > 1
        # ... and once the tail catches up, the same snapshot prunes.
        tail.poll()
        assert tail.state.last_seq == 59
        assert tail.records_consumed == 59
        assert wal.prune() >= 1
        assert wal.segment_count == 1
        tail.remove_cursor()
        wal.close()

    def test_stale_cursor_stops_deferring(self, tmp_path):
        wal = RouterWal(tmp_path, segment_bytes=4096, reader_ttl=0.05)
        self._fill(wal, 1, 20)
        tail = WalTail(tmp_path, reader_id="dead-standby")
        tail.poll()
        self._fill(wal, 20, 60)
        time.sleep(0.1)  # past reader_ttl: the cursor no longer pins
        cursors = wal.reader_cursors()
        assert cursors and not cursors[0]["fresh"]
        wal.note_snapshot(0, 59, {"v": 1})
        assert wal.segment_count == 1
        wal.close()

    def test_tail_survives_prune_of_consumed_segments(self, tmp_path):
        # Prune deletes only segments the tail already consumed (its
        # cursor floor guarantees that); the next poll must skip the
        # missing files without complaint and read on.
        wal = RouterWal(tmp_path, segment_bytes=4096)
        self._fill(wal, 1, 40)
        tail = WalTail(tmp_path, reader_id="standby")
        tail.poll()
        wal.note_snapshot(0, 39, {"v": 1})
        self._fill(wal, 40, 50)
        tail.poll()
        assert tail.state.last_seq == 49
        tail.remove_cursor()
        assert wal.prune() >= 0
        wal.close()


class TestLeaseAndFence:
    def test_acquire_renew_release_round_trip(self, tmp_path):
        wal = RouterWal(tmp_path)
        epoch = wal.acquire_lease("primary-1", endpoint=["127.0.0.1", 4321])
        assert epoch == 1
        lease = wal.read_lease()
        assert lease["owner"] == "primary-1"
        assert lease["endpoint"] == ["127.0.0.1", 4321]
        assert lease["renewed"] > 0
        wal.append_entry(0, 1, [1], [1])
        wal.sync()  # fence check passes while the lease is ours
        wal.renew_lease()
        wal.release_lease()
        assert wal.read_lease()["renewed"] == 0.0
        wal.close()

    def test_superseded_writer_cannot_sync(self, tmp_path):
        old = RouterWal(tmp_path)
        old.acquire_lease("old-primary")
        old.append_entry(0, 1, [1], [1])
        old.sync()
        # A standby claims the directory at a strictly higher epoch.
        new = RouterWal(tmp_path)
        assert new.acquire_lease("standby") == 2
        # The old writer's next ack-gating sync must fail instead of
        # making the batch durable: no ack ever escapes a fenced
        # router.
        old.append_entry(0, 2, [2], [1])
        synced_before = old.last_synced_seq
        with pytest.raises(FencedWriterError):
            old.sync()
        assert old.last_synced_seq == synced_before
        with pytest.raises(FencedWriterError):
            old.renew_lease()
        # A fenced writer's release must not clobber the new lease.
        old.release_lease()
        assert new.read_lease()["owner"] == "standby"
        assert new.read_lease()["renewed"] > 0
        old.close()
        new.close()

    def test_promotion_lease_write_fences_the_very_next_sync(self, tmp_path):
        """Promotion's three steps through the WAL's own writers: the
        lease fences the old writer's very next sync, the tail reads
        the sealed log, and the fence cuts off whatever the fenced
        writer leaves behind."""
        old = RouterWal(tmp_path)
        old.acquire_lease("old-primary")
        for seq in (1, 2):
            old.append_entry(0, seq, [seq], [1])
            old.sync()
        tail = WalTail(tmp_path, write_cursor=False)
        new = RouterWal(tmp_path)
        assert new.acquire_lease("standby") == 2
        old.append_entry(0, 3, [3], [1])
        with pytest.raises(FencedWriterError):
            old.sync()
        assert old.last_synced_seq == 2
        tail.poll()
        new.write_fence(tail.cuts())
        assert _read_json(tmp_path / "fence.json")["epoch"] == 2
        old.close()  # the fenced writer's unsynced residue hits the file
        new.adopt(tail)
        assert [e.seq for e in new.state.entries[0]] == [1, 2]
        recovery = RouterWal(tmp_path).load()
        assert [e.seq for e in recovery.entries[0]] == [1, 2]
        assert recovery.last_seq == 2

    def test_same_size_lease_rewrite_still_fences(self, tmp_path):
        """A lease rewrite of the same size and mtime still fences:
        the check reads the lease itself, not its file metadata."""
        old = RouterWal(tmp_path)
        old.acquire_lease("primary")
        old.append_entry(0, 1, [1], [1])
        old.sync()
        path = tmp_path / "lease.json"
        lease = json.loads(path.read_text())
        before = os.stat(path)
        _atomic_write_json(path, {**lease, "epoch": lease["epoch"] + 1})
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size, before.st_mtime_ns
        )
        old.append_entry(0, 2, [2], [1])
        with pytest.raises(FencedWriterError, match="epoch 2"):
            old.sync()
        old.close()

    def test_lease_replaced_twice_between_syncs_still_fences(self, tmp_path):
        """Two foreign replaces between syncs: the path ends on an
        inode the writer never wrote, whatever inode numbers the
        filesystem hands out in between."""
        old = RouterWal(tmp_path)
        old.acquire_lease("primary")
        old.append_entry(0, 1, [1], [1])
        old.sync()
        path = tmp_path / "lease.json"
        lease = json.loads(path.read_text())
        _atomic_write_json(path, {**lease, "epoch": 2, "owner": "standby"})
        _atomic_write_json(path, {**lease, "epoch": 2, "owner": "standby"})
        old.append_entry(0, 2, [2], [1])
        with pytest.raises(FencedWriterError, match="epoch 2"):
            old.sync()
        assert old.last_synced_seq == 1
        old.close()

    def test_steady_syncs_read_no_lease_file(self, tmp_path, monkeypatch):
        """While the lease path names the inode the writer wrote, the
        per-sync check is one stat; the file is read only once another
        writer replaced it.  The pinned fd closes with the WAL."""
        import repro.cluster.journal as journal

        reads = []
        real_read = journal._read_json

        def counting_read(path):
            reads.append(path.name)
            return real_read(path)

        wal = RouterWal(tmp_path)
        wal.acquire_lease("primary")
        wal.renew_lease()
        monkeypatch.setattr(journal, "_read_json", counting_read)
        for seq in range(1, 6):
            wal.append_entry(0, seq, [seq], [1])
            wal.sync()
        assert reads == []
        other = RouterWal(tmp_path)
        other.acquire_lease("standby")
        reads.clear()
        wal.append_entry(0, 6, [6], [1])
        with pytest.raises(FencedWriterError):
            wal.sync()
        assert reads == ["lease.json"]
        pinned = wal._lease_fd
        wal.close()
        other.close()
        with pytest.raises(OSError):
            os.fstat(pinned)

    def test_epoch_zero_never_fences(self, tmp_path):
        # Without acquire_lease the fencing machinery stays disarmed:
        # single-writer deployments pay nothing.
        with RouterWal(tmp_path) as wal:
            write_entries(wal, [(0, 1, [1], [1])])
            assert wal.epoch == 0
        recovery = RouterWal(tmp_path).load()
        assert [e.seq for e in recovery.entries[0]] == [1]


class TestRescaleRecord:
    def test_commit_rescale_round_trip(self, tmp_path):
        wal = RouterWal(tmp_path)
        write_entries(wal, [(0, 1, [1], [1]), (1, 2, [0], [2])])
        for q in range(3):
            wal.note_generation_snapshot(1, q, 2, {"part": q})
        wal.commit_rescale(1, 3, 2)
        assert wal.generation == 1
        assert wal.n_parts == 3
        assert RouterWal.peek_layout(tmp_path) == {
            "generation": 1,
            "n_parts": 3,
            "seq": 2,
        }
        # Post-cutover traffic lands under the new layout.
        wal.append_entry(2, 3, [5], [1])
        wal.sync()
        wal.close()
        recovery = RouterWal(tmp_path).load()
        assert recovery.generation == 1
        assert recovery.n_parts == 3
        assert recovery.covered_seq == 2
        assert recovery.snapshot_seqs == {0: 2, 1: 2, 2: 2}
        assert recovery.snapshots[2] == {"part": 2}
        assert {p: [e.seq for e in es] for p, es in recovery.entries.items()} == {
            2: [3]
        }
        assert recovery.last_seq == 3

    def test_uncommitted_rescale_recovers_old_layout(self, tmp_path):
        # Staged generation snapshots without the RESCALE record are
        # invisible: a crash mid-migration rolls back to the old
        # layout.
        wal = RouterWal(tmp_path)
        write_entries(wal, [(0, 1, [1], [1])])
        wal.note_generation_snapshot(1, 0, 1, {"staged": True})
        wal.close()
        recovery = RouterWal(tmp_path).load()
        assert recovery.generation == 0
        assert recovery.n_parts is None
        assert [e.seq for e in recovery.entries[0]] == [1]

    def test_rescale_generation_must_advance(self, tmp_path):
        with RouterWal(tmp_path) as wal:
            wal.commit_rescale(1, 2, 0)
            with pytest.raises(CheckpointError):
                wal.commit_rescale(1, 3, 0)


def _replay_view(wal):
    state = wal.state
    return (
        state.generation,
        state.n_parts,
        state.covered_seq,
        dict(state.snapshot_seqs),
        dict(state.snapshots),
        {p: [e.seq for e in tape] for p, tape in state.entries.items()},
    )


class TestFailedRescaleCommit:
    """Once the RESCALE record is framed a failure cannot abort: the
    record may be on disk already, or reach it with the next sync."""

    @pytest.mark.parametrize(
        "point, durable",
        [("wal.sync", False), ("wal.synced", True)],
        ids=["before-write", "after-fsync"],
    )
    def test_failure_is_terminal_and_leaves_the_replay_state(
        self, tmp_path, point, durable
    ):
        wal = RouterWal(tmp_path)
        write_entries(wal, [(0, 1, [1], [1]), (1, 2, [0], [2])])
        wal.note_snapshot(0, 1, {"old": 0})
        wal.sync()
        for q in range(3):
            wal.note_generation_snapshot(1, q, 2, {"part": q})
        before = _replay_view(wal)
        arm(FaultSchedule([(point, 0, "error")]))
        try:
            with pytest.raises(WalCommitError):
                wal.commit_rescale(1, 3, 2)
        finally:
            disarm()
        assert _replay_view(wal) == before
        wal.abandon()
        recovery = RouterWal(tmp_path).load()
        if durable:
            assert (recovery.generation, recovery.n_parts) == (1, 3)
            assert recovery.entries == {}
        else:
            assert recovery.generation == 0
            assert recovery.snapshots == {0: {"old": 0}}
            assert {
                p: [e.seq for e in es] for p, es in recovery.entries.items()
            } == {1: [2]}


class TestFailedCutover:
    def test_router_dies_and_recovery_is_exact(self, tmp_path):
        """A cutover whose RESCALE sync fails kills the router instead
        of aborting back to the old layout; a cold boot on the same
        directory, and a replica restore after it, are bit-for-bit."""
        m, n = 12, 2
        first = [[(k, 1) for k in range(m)]] * 3
        later = [[(k, 2) for k in range(0, m, 3)], [(1, -1), (4, 3)]]

        async def scenario():
            sup = await InProcessSupervisor(m, n).start()
            router = ClusterRouter(
                m, supervisor=sup, journal_dir=tmp_path, port=0
            )
            await router.start()
            client = await AsyncProfileClient.connect(port=router.port)
            control = await AsyncProfileClient.connect(port=router.port)
            schedule = FaultSchedule()

            def fail_next_sync():
                # The cutover's next WAL sync is the RESCALE record's.
                count = schedule.counts.get("wal.sync", 0)
                schedule.add("wal.sync", count, "error")

            schedule.add("router.cutover", 0, fail_next_sync)
            try:
                for batch in first:
                    await client.ingest(batch)
                arm(schedule)
                with pytest.raises(ConnectionError):
                    await control.rescale(3)
            finally:
                disarm()
                client.abort()
                control.abort()
            crashed = router.crashed
            await sup.abort_generation()
            router2 = ClusterRouter(
                m, supervisor=sup, journal_dir=tmp_path, port=0
            )
            await router2.start()
            client2 = await AsyncProfileClient.connect(port=router2.port)
            try:
                booted = await client2.checkpoint()
                await sup.crash(0)
                for batch in later:
                    await client2.ingest(batch)
                recovered = await client2.checkpoint()
                health = await client2.health()
            finally:
                await client2.aclose()
                await router2.stop()
                await sup.stop()
            return crashed, schedule.fired, booted, recovered, health

        crashed, fired, booted, recovered, health = asyncio.run(scenario())
        assert crashed
        assert fired[-1][0] == "wal.sync"
        assert (health["partitions"], health["generation"]) == (2, 0)
        reference = Profiler.open(m, backend="flat")
        try:
            for batch in first:
                reference.ingest(batch)
            restored = Profiler.from_state(booted)
            assert restored.frequencies() == reference.frequencies()
            restored.close()
            for batch in later:
                reference.ingest(batch)
            restored = Profiler.from_state(recovered)
            assert restored.frequencies() == reference.frequencies()
            restored.close()
        finally:
            reference.close()
