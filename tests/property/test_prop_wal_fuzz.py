"""Fuzz the WAL's one on-disk format through both of its readers.

Hypothesis writes multi-segment logs the way a router does — entry
flushes, 2PC prepares with commit, abort or no decision, partition
snapshots and rescales — then damages them.  Two properties:

1. A truncation of the log, a bit flip anywhere in a segment, or a
   zero-filled tail ends in exactly one of two outcomes for both cold
   recovery (``RouterWal.load``) and the live reader (``WalTail.poll``):
   the replay state of the intact record prefix, or
   :class:`~repro.errors.CheckpointError`.  Never another exception
   type.  A zero-filled tail (the crash artifact some filesystems
   leave) always recovers.
2. On an undamaged log, a tail that followed the writer ends in the
   same replay state as a cold load of the directory.

The reference for "intact prefix" is a cold load of the same directory
cut cleanly at the first damaged record, with every later segment
removed.
"""

import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.journal import RouterWal, WalTail
from repro.errors import CheckpointError

SEGMENT_BYTES = 4096
HEAD = 16  # segment magic + u64 epoch

flush_op = st.tuples(
    st.just("flush"),
    st.lists(
        st.dictionaries(
            st.integers(0, 3), st.integers(1, 200), min_size=1, max_size=3
        ),
        min_size=1,
        max_size=3,
    ),
)
txn_op = st.tuples(
    st.just("txn"),
    st.sets(st.integers(0, 3), min_size=1, max_size=3),
    st.sampled_from(["commit", "abort", None]),
)
snapshot_op = st.tuples(st.just("snapshot"), st.integers(0, 3))
rescale_op = st.tuples(st.just("rescale"), st.integers(1, 4))
ops_strategy = st.lists(
    st.one_of(flush_op, flush_op, txn_op, snapshot_op, rescale_op),
    min_size=3,
    max_size=20,
)


def columns(seq, n):
    return np.arange(n, dtype=np.int64) + seq, np.full(n, seq % 5 - 2)


def write_log(directory, ops, after_op=None):
    """Drive a writer through ``ops``; call ``after_op()`` after each."""
    Path(directory).mkdir(exist_ok=True)
    wal = RouterWal(directory, segment_bytes=SEGMENT_BYTES, sync=False)
    n_parts = 2
    seq = 0
    for op in ops:
        if op[0] == "flush":
            for batch in op[1]:
                seq += 1
                sizes = {p % n_parts: n for p, n in batch.items()}
                for p, n in sorted(sizes.items()):
                    wal.append_entry(p, seq, *columns(seq, n))
            wal.sync()
        elif op[0] == "txn":
            seq += 1
            parts = sorted({p % n_parts for p in op[1]})
            for p in parts:
                wal.append_entry(p, seq, *columns(seq, 3), prepared=True)
            wal.sync()
            if op[2] is not None:
                wal.append_decision(seq, parts, commit=op[2] == "commit")
                wal.sync()
        elif op[0] == "snapshot":
            p = op[1] % n_parts
            mark = wal.state.watermark(p)
            wal.note_snapshot(p, mark, {"p": p, "seq": mark})
        elif op[1] != n_parts:
            generation = wal.generation + 1
            for q in range(op[1]):
                wal.note_generation_snapshot(
                    generation, q, seq, {"g": generation, "q": q}
                )
            wal.commit_rescale(generation, op[1], seq)
            n_parts = op[1]
        if after_op is not None:
            after_op()
    wal.close()
    return wal


def summary(state, *, with_states=True):
    """A replay state as plain data (2PC staging left out: cold load
    drops undecided prepares, a live tail still waits on them)."""
    out = {
        "entries": {
            p: [(e.seq, list(e.ids), list(e.deltas)) for e in tape]
            for p, tape in state.entries.items()
        },
        "events": dict(state.events),
        "snapshot_seqs": dict(state.snapshot_seqs),
        "last_seq": state.last_seq,
        "generation": state.generation,
        "n_parts": state.n_parts,
        "covered_seq": state.covered_seq,
    }
    if with_states:
        out["snapshots"] = dict(state.snapshots)
    return out


def segments(directory):
    return sorted(Path(directory).glob("wal-*.log"))


def intact_cut(original, damaged):
    """Bytes of ``damaged`` up to its last record that is still
    byte-identical to ``original`` (0 when even the header is not)."""
    ends, offset = [HEAD], HEAD
    while offset < len(original):
        (length,) = struct.unpack_from("<I", original, offset)
        offset += 8 + length
        ends.append(offset)
    intact = [
        end
        for end in ends
        if end <= len(damaged) and damaged[:end] == original[:end]
    ]
    return max(intact, default=0)


def outcome(read):
    """``read()``'s summary, or the CheckpointError it raised."""
    try:
        return summary(read())
    except CheckpointError as exc:
        return exc


def cold_load(directory):
    return RouterWal(directory).load()


def tail_read(directory):
    tail = WalTail(directory, write_cursor=False)
    tail.poll()
    return tail.state


def damage(segs, data):
    """Draw one damage: ``(kind, k, raw, drops_later)`` — segment
    ``k``'s new bytes, and whether every later segment is gone."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "zero_tail"]))
    if kind == "flip":
        k = data.draw(st.integers(0, len(segs) - 1))
        raw = bytearray(segs[k].read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] ^= 1 << data.draw(st.integers(0, 7))
        return kind, k, bytes(raw), False
    # The log cut at one byte: that segment ends there and every later
    # one is gone; for a zero-filled tail, zeros follow the cut.
    k = data.draw(st.integers(0, len(segs) - 1))
    size = segs[k].stat().st_size
    at = data.draw(st.integers(HEAD if kind == "zero_tail" else 0, size))
    raw = segs[k].read_bytes()[:at]
    if kind == "zero_tail":
        raw += bytes(data.draw(st.integers(1, 4096)))
    return kind, k, raw, True


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy, data=st.data())
def test_damage_recovers_the_intact_prefix_or_refuses(ops, data):
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        original = root / "original"
        write_log(original, ops)
        segs = segments(original)
        if not segs:
            return
        kind, k, raw, drops_later = damage(segs, data)
        damaged, reference = root / "damaged", root / "reference"
        shutil.copytree(original, damaged)
        shutil.copytree(original, reference)
        (damaged / segs[k].name).write_bytes(raw)
        for seg in segs[k + 1 :] if drops_later else ():
            (damaged / seg.name).unlink()
        old = segs[k].read_bytes()
        records_intact = raw[:8] + raw[HEAD:] == old[:8] + old[HEAD:]
        if not (kind == "flip" and records_intact):
            # The intact prefix: segment k cut after its last intact
            # record (removed below a whole header), later ones gone.
            # (A flipped epoch damages no record: it is unchecked
            # without a fence, so the whole log is the reference.)
            for seg in segs[k + 1 :]:
                (reference / seg.name).unlink()
            cut = intact_cut(old, raw)
            if cut < HEAD:
                (reference / segs[k].name).unlink()
            else:
                (reference / segs[k].name).write_bytes(old[:cut])
        expected = summary(cold_load(reference))
        for read in (cold_load, tail_read):
            with tempfile.TemporaryDirectory() as copy:
                shutil.copytree(damaged, copy, dirs_exist_ok=True)
                got = outcome(lambda: read(copy))
            if isinstance(got, CheckpointError):
                # A zero-filled tail is the crash artifact: it always
                # recovers.
                assert kind != "zero_tail", f"{read.__name__}: {got}"
            else:
                assert got == expected, read.__name__


@settings(max_examples=200, deadline=None)
@given(
    ops=ops_strategy,
    polls=st.lists(st.booleans(), min_size=20, max_size=20),
    cursor=st.booleans(),
)
def test_tail_that_followed_the_writer_equals_cold_load(ops, polls, cursor):
    with tempfile.TemporaryDirectory() as directory:
        tail = WalTail(directory, write_cursor=cursor)
        step = iter(polls)

        def maybe_poll():
            if next(step):
                tail.poll()

        write_log(directory, ops, after_op=maybe_poll)
        tail.poll()
        loaded = RouterWal(directory).load()
        if cursor:
            # Its cursor kept every segment it had not read on disk.
            assert summary(tail.state, with_states=False) == summary(
                loaded, with_states=False
            )
        # Promotion reads the snapshot states (and the layout) from
        # their files, which also cover whatever a cursorless tail
        # saw pruned before it read it.
        tail.state.adopt_files(Path(directory))
        assert summary(tail.state) == summary(loaded)


def test_writer_state_equals_cold_load():
    """The writer's own replay state is the one a cold load rebuilds."""
    ops = [
        ("flush", [{0: 5, 1: 3}, {1: 4}]),
        ("txn", {0, 1}, "commit"),
        ("txn", {0}, "abort"),
        ("snapshot", 0),
        ("rescale", 3),
        ("flush", [{2: 7}, {0: 1}]),
        ("snapshot", 2),
        ("flush", [{1: 2}]),
    ]
    with tempfile.TemporaryDirectory() as directory:
        writer = write_log(directory, ops)
        loaded = RouterWal(directory).load()
    assert summary(writer.state) == summary(loaded)
    assert (loaded.generation, loaded.n_parts) == (1, 3)
    assert {p: [e.seq for e in t] for p, t in loaded.entries.items()} == {
        0: [6],
        1: [7],
    }
    assert loaded.snapshot_seqs == {0: 4, 1: 4, 2: 5}
    assert loaded.snapshots[2] == {"p": 2, "seq": 5}
