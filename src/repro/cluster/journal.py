"""The cluster tier's one log: the router's journal, WAL and standby tape.

Every wire batch the router accepts is partitioned and appended to
:class:`RouterWal` — tagged with its ``seq`` serialization token —
*before* anything is sent to a replica.  The log keeps one replay
state, the same structure whoever builds it: the writer updates it on
every append, cold recovery (:meth:`RouterWal.load`) rebuilds it from
disk, and a warm standby (:class:`WalTail`) follows it live.  It holds
each partition's post-snapshot entry tape, and a replica that dies is
brought back by restoring its partition's last snapshot and replaying
that tape in ``seq`` order; because the restore rewinds the replica to
the snapshot first, a send that raced the crash (applied on the old
process, or half-delivered) is wiped and the replay is exact, never
double-counted.

One coverage rule drops entries for every consumer: a snapshot of
partition ``p`` at seq ``s`` holds every entry of ``p`` at or below
``s``.  The router snapshots a partition only once it has delivered
the whole tape (its pipeline is synchronous: one flusher task appends,
delivers, then snapshots), so in the writer a snapshot empties the
tape.  The standby learns of the snapshot from a ``SNAPSHOT`` record
in the log and drops the same entries.

With a directory, the log is durable: an fsync'd, CRC-framed on-disk
log that survives the *router* process.  Records are appended (and
synced) before any replica sees a byte, so a client ack always has a
durable record behind it; segments rotate at a byte threshold and a
leading run of segments is deleted once the persisted partition
snapshots cover everything in them.  A cold router pointed at the
same directory recovers exactly like a replica does — snapshot load +
``seq``-ordered replay — with zero acknowledged-event loss (see
:meth:`RouterWal.load` for the torn-tail rule that makes a crash
mid-write safe).  Without a directory (``RouterWal(None)``) the same
replay state lives in memory only: no files, no framing.

Record framing (little-endian)::

    <u32 payload length> <u32 crc32(payload)> <payload>

with payloads::

    ENTRY / PENTRY:  <u8 type> <u32 partition> <u64 seq> <u32 count>
                     <count x i64 ids> <count x i64 deltas>
    COMMIT / ABORT:  <u8 type> <u64 seq> <u32 n> <n x u32 partitions>
    RESCALE:         <u8 type> <u32 generation> <u32 n_parts> <u64 seq>
    SNAPSHOT:        <u8 type> <u32 partition> <u64 seq>

``ENTRY`` is a committed partitioned wire batch (the non-strict
path).  ``PENTRY`` is the 2PC prepare half: it counts only when a
later ``COMMIT`` for its ``seq`` lands; an ``ABORT`` — or no decision
at all, the crashed-before-deciding case — drops it at replay (no
replica can have applied it: commits are only sent after the decision
record is durable).  ``SNAPSHOT`` follows a durable snapshot file and
applies the coverage rule; cold recovery gets the same coverage from
the snapshot files themselves.

Three more artifacts share the directory and make the WAL a
*multi-process* coordination point:

- ``lease.json`` — the writer lease.  The active router stamps it
  with its fencing ``epoch`` and a renewal timestamp; a warm standby
  (:class:`WalTail`) watches it and, once the lease goes stale and
  the owner stops answering probes, takes over by writing a *higher*
  epoch.  Every segment header carries the epoch it was written
  under, and the old router re-checks the lease inside :meth:`RouterWal
  .sync` *before* the ack-gating fsync — a superseded writer raises
  :class:`~repro.errors.FencedWriterError` instead of acking, which
  is the whole split-brain guarantee.
- ``fence.json`` — written once at promotion: the new epoch plus a
  byte-exact cut per existing segment (how far the standby had
  consumed, always a record boundary).  Bytes past a cut — and whole
  segments stamped with a pre-fence epoch but absent from the cut
  map — are un-acked garbage from the fenced writer and are
  truncated/unlinked on the next :meth:`RouterWal.load`.
- ``layout.json`` + ``RESCALE`` records — live rebalancing.  A
  ``rescale`` cutover appends a ``RESCALE`` decision record (the
  durable commit point, reusing the 2PC discipline), seals the
  segment, and rewrites ``layout.json`` with the new generation and
  partition count; generation-tagged snapshots
  (``snapshot-g<g>-p<q>.json``) carry the migrated states.  Replay
  that meets a ``RESCALE`` record drops everything it buffered for
  the old layout — the new generation's snapshots cover it all by
  construction.

Standbys advertise their read position in ``cursor-<reader>.json``;
:meth:`RouterWal.prune` defers deleting any segment a *fresh* cursor
has not finished (stale cursors — older than ``reader_ttl`` — stop
pinning disk, so a dead standby cannot leak segments forever).
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Any, Iterator

import numpy as _np

from repro.errors import CheckpointError, FencedWriterError, WalCommitError
from repro.testing.faults import fault_point_sync

__all__ = [
    "JournalEntry",
    "RouterWal",
    "WalTail",
]


class JournalEntry:
    """One partitioned wire batch: parallel id/delta columns + seq."""

    __slots__ = ("seq", "ids", "deltas")

    def __init__(self, seq: int, ids, deltas) -> None:
        self.seq = seq
        self.ids = ids
        self.deltas = deltas

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"JournalEntry(seq={self.seq}, events={len(self.ids)})"


#: First bytes of every WAL segment file.  v1 segments carry the bare
#: magic; v2 segments follow it with the writer's u64 fencing epoch.
_SEGMENT_MAGIC_V1 = b"RWAL0001"
_SEGMENT_MAGIC = b"RWAL0002"
_SEGMENT_EPOCH = struct.Struct("<Q")
_SEGMENT_HEAD = len(_SEGMENT_MAGIC) + _SEGMENT_EPOCH.size

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_ENTRY_HEAD = struct.Struct("<BIQI")  # type, partition, seq, count
_DECISION_HEAD = struct.Struct("<BQI")  # type, seq, n partitions
_RESCALE_HEAD = struct.Struct("<BIIQ")  # type, generation, n_parts, seq
_SNAPSHOT_HEAD = struct.Struct("<BIQ")  # type, partition, seq

_REC_ENTRY = 1
_REC_PENTRY = 2
_REC_COMMIT = 3
_REC_ABORT = 4
_REC_RESCALE = 5
_REC_SNAPSHOT = 6

_HEADS = {
    _REC_ENTRY: _ENTRY_HEAD,
    _REC_PENTRY: _ENTRY_HEAD,
    _REC_COMMIT: _DECISION_HEAD,
    _REC_ABORT: _DECISION_HEAD,
    _REC_RESCALE: _RESCALE_HEAD,
    _REC_SNAPSHOT: _SNAPSHOT_HEAD,
}

_LEASE_NAME = "lease.json"
_FENCE_NAME = "fence.json"
_LAYOUT_NAME = "layout.json"


def _pack_i64(values) -> bytes:
    return _np.ascontiguousarray(values, dtype="<i8").tobytes()


def _unpack_i64(buf: bytes):
    return _np.frombuffer(buf, dtype="<i8")


def _atomic_write_json(
    path: Path, payload: dict, *, durable: bool = True, pin: bool = False
) -> int | None:
    """tmp + fsync + rename: readers see the old file or the new one.

    ``durable=False`` skips the fsync, for advisory files whose loss in
    a machine crash is harmless: the rename alone keeps them atomic
    for readers.  ``pin=True`` returns an fd on the written inode,
    duplicated from the tmp file's own fd before the rename (never a
    reopen of a path another writer may have replaced meanwhile).
    While it is open the inode cannot be reused, so ``os.path.samestat``
    against it tells whether ``path`` still is this write.
    """
    tmp = path.with_name(path.name + ".tmp")
    # One dumps + one write: json.dump streams through the pure-Python
    # encoder chunk by chunk, while dumps runs the C encoder.  Same
    # bytes either way.
    text = json.dumps(payload, separators=(",", ":"))
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        if durable:
            fh.flush()
            os.fsync(fh.fileno())
        pinned = os.dup(fh.fileno()) if pin else None
    try:
        os.replace(tmp, path)
    except OSError:
        if pinned is not None:
            os.close(pinned)
        raise
    return pinned


def _read_json(path: Path) -> dict | None:
    """Read a coordination file; ``None`` when absent.

    Malformed content refuses loudly — these files gate fencing and
    layout decisions, and guessing wrong loses acked events.
    """
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(
            f"malformed WAL coordination file {path.name}: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"malformed WAL coordination file {path.name}: not an object"
        )
    return payload


def _read_fence(directory: Path) -> tuple[int, dict[int, int]]:
    """``fence.json`` as ``(epoch, {segment index: byte cut})``."""
    fence = _read_json(directory / _FENCE_NAME) or {}
    cuts = {int(k): int(v) for k, v in fence.get("cuts", {}).items()}
    return int(fence.get("epoch", 0)), cuts


def _snapshot_prefix(generation: int) -> str:
    return "snapshot-" if generation == 0 else f"snapshot-g{generation}-"


def _read_snapshots(
    directory: Path, generation: int
) -> list[tuple[int, int, Any]]:
    """Every persisted snapshot of one generation: ``(p, seq, state)``."""
    prefix = _snapshot_prefix(generation)
    found = []
    for path in sorted(directory.glob(f"{prefix}p*.json")):
        try:
            payload = json.loads(path.read_text())
            partition = int(payload["partition"])
            seq = int(payload["snapshot_seq"])
            state = payload["state"]
            if path.name != f"{prefix}p{partition}.json":
                raise ValueError("partition mismatch with filename")
        except FileNotFoundError:  # superseded mid-glob by the writer
            continue
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"malformed WAL snapshot {path.name}: {exc}"
            ) from exc
        found.append((partition, seq, state))
    return found


def _header_unwritten(data: bytes) -> bool:
    """Is ``data`` the head of a segment whose header is not out yet?

    The writer creates a segment file and buffers its header until the
    first flush, so a reader can meet an empty file or a prefix of the
    v2 header.  Only such prefixes qualify: a full-length head with the
    wrong magic is not a WAL segment, and a complete v1 magic is a
    whole (v1) header.
    """
    if len(data) >= _SEGMENT_HEAD or data.startswith(_SEGMENT_MAGIC_V1):
        return False
    magic = data[: len(_SEGMENT_MAGIC)]
    return _SEGMENT_MAGIC.startswith(magic) or _SEGMENT_MAGIC_V1.startswith(
        magic
    )


def _segment_header(data: bytes, name: str) -> tuple[int, int]:
    """Return ``(epoch, header_length)`` for a segment's first bytes."""
    if data[: len(_SEGMENT_MAGIC)] == _SEGMENT_MAGIC:
        if len(data) < _SEGMENT_HEAD:
            raise CheckpointError(f"{name} is shorter than its header")
        (epoch,) = _SEGMENT_EPOCH.unpack_from(data, len(_SEGMENT_MAGIC))
        return epoch, _SEGMENT_HEAD
    if data[: len(_SEGMENT_MAGIC_V1)] == _SEGMENT_MAGIC_V1:
        return 0, len(_SEGMENT_MAGIC_V1)
    raise CheckpointError(f"{name} is not a WAL segment (bad magic)")


# Records are tagged tuples, ``seq`` always second::
#
#     ("entry", seq, partition, ids, deltas, prepared)
#     ("decision", seq, partitions, commit)
#     ("rescale", seq, generation, n_parts)
#     ("snapshot", seq, partition)
#
# The writer builds them directly; both readers get them from
# _parse_record, so nobody can disagree about what a record means.


def _pack_record(record: tuple) -> bytes:
    kind, seq = record[0], record[1]
    if kind == "entry":
        _k, _s, partition, ids, deltas, prepared = record
        return (
            _ENTRY_HEAD.pack(
                _REC_PENTRY if prepared else _REC_ENTRY,
                partition,
                seq,
                len(ids),
            )
            + _pack_i64(ids)
            + _pack_i64(deltas)
        )
    if kind == "decision":
        _k, _s, parts, commit = record
        return _DECISION_HEAD.pack(
            _REC_COMMIT if commit else _REC_ABORT, seq, len(parts)
        ) + struct.pack(f"<{len(parts)}I", *parts)
    if kind == "rescale":
        return _RESCALE_HEAD.pack(_REC_RESCALE, record[2], record[3], seq)
    return _SNAPSHOT_HEAD.pack(_REC_SNAPSHOT, record[2], seq)


def _parse_record(payload: bytes) -> tuple:
    """Decode one WAL record payload; malformed ones raise typed."""
    head = _HEADS.get(payload[0]) if payload else None
    if head is None:
        kind = payload[0] if payload else "<empty>"
        raise CheckpointError(f"unknown WAL record type {kind}")
    if len(payload) < head.size:
        raise CheckpointError(
            f"malformed WAL record: {len(payload)} bytes, shorter than "
            f"its {head.size}-byte header"
        )
    fields = head.unpack_from(payload)
    rec_type = fields[0]
    body = memoryview(payload)[head.size :]
    if rec_type in (_REC_ENTRY, _REC_PENTRY):
        _t, partition, seq, count = fields
        expected = 16 * count
    elif rec_type in (_REC_COMMIT, _REC_ABORT):
        _t, seq, n_parts = fields
        expected = 4 * n_parts
    else:
        expected = 0
    if len(body) != expected:
        raise CheckpointError(
            f"malformed WAL record: type {rec_type} carries {len(body)} "
            f"bytes after its header, expected {expected}"
        )
    if rec_type in (_REC_ENTRY, _REC_PENTRY):
        ids = _unpack_i64(body[: 8 * count])
        deltas = _unpack_i64(body[8 * count :])
        return ("entry", seq, partition, ids, deltas,
                rec_type == _REC_PENTRY)
    if rec_type in (_REC_COMMIT, _REC_ABORT):
        parts = struct.unpack(f"<{n_parts}I", body)
        return ("decision", seq, parts, rec_type == _REC_COMMIT)
    if rec_type == _REC_RESCALE:
        _t, generation, n_parts, seq = fields
        return ("rescale", seq, generation, n_parts)
    _t, partition, seq = fields
    return ("snapshot", seq, partition)


def _records(
    data: bytes, offset: int, name: str, *, sealed: bool, base: int = 0
) -> Iterator[tuple[tuple, int]]:
    """Parse the framed records in ``data[offset:]``, in order.

    The one framing loop both readers share.  Yields ``(record, end)``
    with ``end`` the offset just past the record.  An incomplete final
    record ends the scan: a truncated frame or body, a CRC-bad record
    with only zero bytes after it, or a zero-length frame with only
    zero bytes after it.  (Some filesystems leave a zero-filled tail
    after a crash; ``crc32(b"") == 0``, so an all-zero frame header
    passes its CRC.)  It is a torn write, or one the writer has not
    finished: cold load truncates it and the tail waits for it.  In a
    ``sealed`` segment (a later segment exists, or a fence cut ends
    it) nothing can still be in flight, so it is corruption, and so is
    a CRC-bad record with other bytes after it anywhere.  ``base``
    offsets the byte positions in error messages.
    """
    n = len(data)
    while offset < n:
        torn = None
        if offset + _FRAME.size > n:
            torn = "truncated frame header"
        else:
            length, crc = _FRAME.unpack_from(data, offset)
            body = offset + _FRAME.size
            end = body + length
            if end > n:
                torn = "truncated record body"
            elif zlib.crc32(data[body:end]) != crc:
                # A torn write is a *prefix* of one record (zero-filled
                # at most), so a crc-bad record followed by more bytes
                # cannot be the crash artifact — that is corruption.
                if data[end:].strip(b"\0"):
                    raise CheckpointError(
                        f"corrupt WAL record in {name} at byte "
                        f"{base + offset} (crc mismatch) — records "
                        f"follow it, so this is not a torn tail"
                    )
                torn = "crc mismatch in final record"
            elif length == 0 and not data[offset:].strip(b"\0"):
                torn = "zero-filled tail"
        if torn is not None:
            if sealed:
                raise CheckpointError(
                    f"corrupt WAL record in {name} at byte "
                    f"{base + offset} ({torn}) — the segment is sealed, "
                    f"so this is not a torn tail"
                )
            return
        yield _parse_record(data[body:end]), end
        offset = end


def _truncate(path: Path, size: int) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(size)
        fh.flush()
        os.fsync(fh.fileno())


class _ReplayState:
    """What the log means so far: the one replay state.

    The writer, cold recovery and the standby's tail all build it the
    same way, through :meth:`apply`.  ``entries`` maps partition ->
    committed :class:`JournalEntry` tape in ``seq`` order,
    post-snapshot only (``events`` counts the tape's events);
    ``prepared`` stages 2PC prepares by ``seq`` until their decision;
    ``snapshots`` maps partition -> snapshot state (absent partitions
    boot from the implicit empty snapshot) and ``snapshot_seqs`` the
    seq each covers; ``last_seq`` is the highest seq the log has ever
    assigned (committed, aborted or undecided — a reborn router must
    never reuse one).  ``generation`` and ``n_parts`` carry the
    rescale layout (``n_parts`` is ``None`` before any rescale, i.e.
    the boot-time partition count stands); ``covered_seq`` is the
    last rescale cutover — every event at or below it lives inside the
    generation's snapshots.
    """

    __slots__ = (
        "entries",
        "events",
        "prepared",
        "snapshots",
        "snapshot_seqs",
        "last_seq",
        "generation",
        "n_parts",
        "covered_seq",
    )

    def __init__(self) -> None:
        self.entries: dict[int, list[JournalEntry]] = {}
        self.events: dict[int, int] = {}
        self.prepared: dict[int, list[tuple[int, Any, Any]]] = {}
        self.snapshots: dict[int, Any] = {}
        self.snapshot_seqs: dict[int, int] = {}
        self.last_seq = 0
        self.generation = 0
        self.n_parts: int | None = None
        self.covered_seq = 0

    def apply(self, record: tuple) -> None:
        """Replay one record (see :func:`_pack_record` for shapes)."""
        kind, seq = record[0], record[1]
        if seq > self.last_seq:
            self.last_seq = seq
        if kind == "rescale":
            _k, _s, generation, n_parts = record
            if generation > self.generation:
                # The durable cutover: everything so far lives inside
                # the new generation's snapshots, one per partition.
                self.entries.clear()
                self.events.clear()
                self.prepared.clear()
                self.snapshots = {}
                self.snapshot_seqs = {q: seq for q in range(n_parts)}
                self.generation = generation
                self.n_parts = n_parts
                self.covered_seq = seq
            return
        if seq <= self.covered_seq:
            return  # a rescale's snapshots already cover it
        if kind == "entry":
            _k, _s, partition, ids, deltas, prepared = record
            if prepared:
                self.prepared.setdefault(seq, []).append(
                    (partition, ids, deltas)
                )
            else:
                self._push(partition, seq, ids, deltas)
        elif kind == "decision":
            staged = self.prepared.pop(seq, ())
            if record[3]:
                for partition, ids, deltas in staged:
                    self._push(partition, seq, ids, deltas)
        else:
            self.cover(record[2], seq)

    def _push(self, partition: int, seq: int, ids, deltas) -> None:
        if seq <= self.snapshot_seqs.get(partition, 0):
            return  # the snapshot already covers it
        tape = self.entries.get(partition)
        if tape is None:
            tape = self.entries[partition] = []
            self.events[partition] = 0
        elif seq <= tape[-1].seq:
            raise CheckpointError(
                f"journal seq must be monotonic: {seq} after "
                f"{tape[-1].seq} on partition {partition}"
            )
        tape.append(JournalEntry(seq, ids, deltas))
        self.events[partition] += len(ids)

    def cover(self, partition: int, seq: int) -> None:
        """The coverage rule: a snapshot of ``partition`` at ``seq``
        holds every entry of it at or below ``seq``."""
        if seq > self.last_seq:
            self.last_seq = seq
        if seq > self.snapshot_seqs.get(partition, 0):
            self.snapshot_seqs[partition] = seq
        tape = self.entries.get(partition)
        if tape and tape[0].seq <= seq:
            kept = [e for e in tape if e.seq > seq]
            if kept:
                self.entries[partition] = kept
                self.events[partition] = sum(len(e) for e in kept)
            else:
                del self.entries[partition]
                del self.events[partition]

    def watermark(self, partition: int) -> int:
        """Highest ``seq`` partition ``p`` has seen (tape or snapshot)."""
        tape = self.entries.get(partition)
        if tape:
            return tape[-1].seq
        return self.snapshot_seqs.get(partition, 0)

    def adopt_files(self, directory: Path) -> None:
        """Catch up on the layout and snapshot files in ``directory``.

        The layout applies as its ``RESCALE`` record would; each
        snapshot file of the live generation applies the coverage rule
        and supplies the partition's state.
        """
        layout = RouterWal.peek_layout(directory)
        if layout is not None:
            self.apply(
                (
                    "rescale",
                    layout["seq"],
                    layout["generation"],
                    layout["n_parts"],
                )
            )
        for partition, seq, state in _read_snapshots(
            directory, self.generation
        ):
            if seq >= self.snapshot_seqs.get(partition, 0):
                self.snapshots[partition] = state
                self.cover(partition, seq)


class _SegmentMeta:
    """Prune bookkeeping for one segment file."""

    __slots__ = ("path", "index", "parts", "max_seq")

    def __init__(self, path: Path, index: int) -> None:
        self.path = path
        self.index = index
        #: partition -> highest seq this segment mentions for it
        #: (entries and decisions both count: a decision record must
        #: outlive the prepared entries it guards, and prefix pruning
        #: plus this accounting guarantees it does).
        self.parts: dict[int, int] = {}
        #: highest seq of *any* record in the segment, regardless of
        #: partition — the prune key that survives a rescale, where
        #: partition numbers change meaning across generations.
        self.max_seq = 0

    def note(self, record: tuple) -> None:
        kind, seq = record[0], record[1]
        if seq > self.max_seq:
            self.max_seq = seq
        if kind == "entry":
            parts = (record[2],)
        elif kind == "decision":
            parts = record[2]
        else:
            return
        for p in parts:
            if seq > self.parts.get(p, 0):
                self.parts[p] = seq

    def covered_by(self, snapshot_seqs: dict[int, int]) -> bool:
        return all(
            snapshot_seqs.get(p, 0) >= seq
            for p, seq in self.parts.items()
        )


class RouterWal:
    """The router's journal: one replay state, optionally durable.

    Parameters
    ----------
    path:
        The WAL directory (created if missing): ``wal-<n>.log``
        segments plus one ``snapshot-p<p>.json`` per partition.
        ``None`` keeps the journal in memory only: the replay state
        without files or framing, and :meth:`sync` does nothing.
    segment_bytes:
        Rotation threshold: the first append after a sync that finds
        the current segment at or past this size seals it and opens
        the next (a flush never straddles two segments).  Small
        enough that truncation (whole-segment deletion once snapshots
        cover it) keeps disk bounded; large enough that rotation is
        rare on the hot path.
    sync:
        ``True`` (the default) makes :meth:`sync` a real ``fsync`` —
        the durability the ack contract is built on.  ``False`` keeps
        the file layout but trades crash durability for speed; the
        bench trajectory's ``wal_overhead`` ratio measures exactly
        this gap.
    reader_ttl:
        Seconds before a standby's ``cursor-*.json`` stops deferring
        :meth:`prune`.  A live tail reader refreshes its cursor every
        poll; one that has not for ``reader_ttl`` is presumed dead and
        no longer pins segments.
    """

    def __init__(
        self,
        path: str | Path | None,
        *,
        segment_bytes: int = 1 << 20,
        sync: bool = True,
        reader_ttl: float = 30.0,
    ) -> None:
        if segment_bytes < 4096:
            raise CheckpointError(
                f"segment_bytes must be >= 4096, got {segment_bytes}"
            )
        self._dir = None if path is None else Path(path)
        self._segment_bytes = segment_bytes
        self._sync = bool(sync)
        self._reader_ttl = float(reader_ttl)
        self._file = None
        #: framed records appended since the last sync: they reach the
        #: file in one write inside sync(), so a process that dies
        #: mid-flush leaves none of that flush behind — never half a
        #: wire batch split across partitions.
        self._pending: list[bytes] = []
        self._next_index = 1
        self._segments: list[_SegmentMeta] = []
        self._current: _SegmentMeta | None = None
        self._dirty = False
        #: fencing epoch this writer holds the lease at; 0 = fencing
        #: disarmed (standalone use: no lease, no per-sync check).
        self._epoch = 0
        #: fd on the lease inode this writer last wrote (None before
        #: the first write and after close): the per-sync fence check
        #: reads the lease file only when the path names another inode.
        self._lease_fd: int | None = None
        self._last_synced_seq = 0
        self._owner = ""
        self._endpoint: str | None = None
        #: generation -> {partition -> state} staged by
        #: note_generation_snapshot, adopted at commit_rescale.
        self._staged: dict[int, dict[int, Any]] = {}
        #: the replay state every append updates
        self.state = _ReplayState()
        self.stats = {
            "records": 0,
            "syncs": 0,
            "bytes": 0,
            "segments_created": 0,
            "segments_pruned": 0,
        }

    # -- paths ---------------------------------------------------------

    def _segment_path(self, index: int) -> Path:
        return self._dir / f"wal-{index:08d}.log"

    def _snapshot_path(self, partition: int, generation: int) -> Path:
        return self._dir / f"{_snapshot_prefix(generation)}p{partition}.json"

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self._dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- recovery ------------------------------------------------------

    def load(self) -> _ReplayState:
        """Read everything back; open a fresh segment for new appends.

        The layout and snapshot files first (each is an atomic whole —
        tmp + fsync + rename), then every segment in index order.  A
        broken record at the very tail of the *last* segment is a torn
        write from the crash: it cannot have been acked (acks wait for
        :meth:`sync`, which returns only after the full record is
        durable), so it is truncated away.  A broken record anywhere
        else is real corruption and refuses loudly — silently
        skipping records would un-ack acknowledged events.

        With a ``fence.json`` present (a standby promoted over this
        directory at some point), cut segments are honored only up to
        their recorded byte cut and pre-fence segments outside the cut
        map are deleted — both hold only bytes the fenced writer could
        never have acked.  A ``RESCALE`` record mid-log switches the
        replay to the new generation's layout, exactly as the live
        cutover did.
        """
        if self._dir is None:
            return self.state
        self._dir.mkdir(parents=True, exist_ok=True)
        state = self.state = _ReplayState()
        state.adopt_files(self._dir)
        layout_generation = state.generation
        fence_epoch, cuts = _read_fence(self._dir)
        scan: list[tuple[Path, int, int | None]] = []
        for seg_path in sorted(self._dir.glob("wal-*.log")):
            index = int(seg_path.stem.split("-")[1])
            self._next_index = max(self._next_index, index + 1)
            with open(seg_path, "rb") as fh:
                head = fh.read(_SEGMENT_HEAD)
            if _header_unwritten(head):
                # Created, then the writer died before its first flush:
                # the file holds no record, let alone an acked one.
                seg_path.unlink(missing_ok=True)
                continue
            if fence_epoch:
                epoch, _head = _segment_header(head, seg_path.name)
                if index in cuts:
                    scan.append((seg_path, index, cuts[index]))
                    continue
                if epoch < fence_epoch:
                    # Stale writer's post-fence garbage: it was created
                    # (or written past the standby's final read) by the
                    # fenced epoch, so nothing in it was ever acked.
                    seg_path.unlink(missing_ok=True)
                    continue
            scan.append((seg_path, index, None))
        for i, (seg_path, index, cut) in enumerate(scan):
            meta = _SegmentMeta(seg_path, index)
            self._segments.append(meta)
            data = seg_path.read_bytes()
            if cut is not None and len(data) > cut:
                # Bytes past the promotion cut were never acked (the
                # standby fenced the writer before reading to the cut);
                # scrub them so the file matches what replays.
                _truncate(seg_path, cut)
                data = data[:cut]
            _epoch, end = _segment_header(data, seg_path.name)
            sealed = i < len(scan) - 1 or cut is not None
            for record, end in _records(
                data, end, seg_path.name, sealed=sealed
            ):
                meta.note(record)
                state.apply(record)
            if end < len(data):
                # Torn tail: crash mid-write, never acked.  Truncate so
                # the next recovery sees a clean tape.
                _truncate(seg_path, end)
        # Prepared-without-decision: the router died before the commit
        # record hit disk, so no replica was told to commit — dropped.
        # (They still counted into last_seq above: never reuse a seq.)
        state.prepared.clear()
        if state.generation != layout_generation:
            # The RESCALE record is the commit point; the layout file
            # is a convenience that can lag one crash behind.  Repair,
            # and read the new generation's snapshots.
            self._write_layout()
            state.adopt_files(self._dir)
        self._drop_superseded_snapshots()
        self._last_synced_seq = state.last_seq
        self.prune()
        return state

    def adopt(self, tail: "WalTail") -> None:
        """Take over a tail reader's replay state (warm promotion).

        A promoted standby already holds the directory's full replay
        state (it tailed every record), so re-scanning via
        :meth:`load` would only burn promotion time.  Appends then
        open a fresh segment after everything on disk, stamped with
        this writer's epoch, and the handed-over segment metadata
        keeps prune exact.
        """
        self.state = tail.state
        self.state.prepared.clear()  # undecided: dropped, as in load()
        self._next_index = max(self._next_index, tail.next_index)
        self._segments = tail.segment_metas()
        self._last_synced_seq = self.state.last_seq

    # -- appending -----------------------------------------------------

    def _writer(self) -> None:
        # Rotate only between syncs: a flush's records never straddle
        # two segments, and none reaches the file before sync().
        if self._file is None or self._current is None:
            self._open_segment()
        elif not self._pending and self._file.tell() >= self._segment_bytes:
            self._seal_segment()
            self._open_segment()

    def _open_segment(self) -> None:
        self._check_fence()
        self._dir.mkdir(parents=True, exist_ok=True)
        index = self._next_index
        self._next_index += 1
        path = self._segment_path(index)
        self._file = open(path, "ab")
        if self._file.tell() == 0:
            self._file.write(
                _SEGMENT_MAGIC + _SEGMENT_EPOCH.pack(self._epoch)
            )
        self._current = _SegmentMeta(path, index)
        self._segments.append(self._current)
        self.stats["segments_created"] += 1
        self._fsync_dir()

    def _write_pending(self) -> None:
        if self._pending:
            self._file.write(b"".join(self._pending))
            self._pending = []

    def _seal_segment(self) -> None:
        self._write_pending()
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
        self._current = None

    def _log(self, record: tuple, *, fault: bool = True) -> None:
        """Apply ``record`` to the replay state and, with a directory,
        frame it for the next :meth:`sync`."""
        if self._dir is None:
            self.state.apply(record)
            return
        if fault:
            fault_point_sync("wal.append")
        self.state.apply(record)
        self._frame(record)

    def _frame(self, record: tuple) -> None:
        """Queue ``record``'s frame for the next :meth:`sync`."""
        payload = _pack_record(record)
        self._writer()
        self._pending.append(
            _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        )
        self._current.note(record)
        self._dirty = True
        self.stats["records"] += 1
        self.stats["bytes"] += _FRAME.size + len(payload)

    def append_entry(
        self, partition: int, seq: int, ids, deltas, *, prepared: bool = False
    ) -> None:
        """Record one partitioned wire batch (before anything is sent).

        ``prepared=True`` writes the 2PC ``PENTRY`` flavor, which only
        reaches the tape once a ``COMMIT`` decision follows it.
        """
        self._log(("entry", seq, partition, ids, deltas, prepared))

    def append_decision(self, seq: int, partitions, *, commit: bool) -> None:
        """Record the 2PC decision for ``seq`` over ``partitions``; a
        commit moves the staged entries onto the tape."""
        parts = tuple(sorted(int(p) for p in partitions))
        self._log(("decision", seq, parts, commit))

    def sync(self) -> None:
        """Make every appended record durable (one fsync, batched).

        The router calls this once per flush, after the appends and
        *before* any replica send or client ack — which is the entire
        durability contract: an acked batch is on disk.  With fencing
        armed, the lease is re-checked first: a superseded writer
        raises :class:`~repro.errors.FencedWriterError` *instead of*
        making the batch durable, so no ack can ever escape a fenced
        router — the promoted standby's read of the log is final.
        """
        if not self._dirty or self._file is None:
            return
        self._check_fence()
        fault_point_sync("wal.sync")
        self._write_pending()
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())
        self._dirty = False
        self._last_synced_seq = self.state.last_seq
        self.stats["syncs"] += 1
        fault_point_sync("wal.synced")

    # -- fencing lease -------------------------------------------------

    def _check_fence(self) -> None:
        if not self._epoch:
            return
        path = self._dir / _LEASE_NAME
        if self._lease_fd is not None:
            # Every lease writer replaces the file, so while the path
            # names the inode this writer wrote, no one superseded it.
            try:
                if os.path.samestat(os.stat(path), os.fstat(self._lease_fd)):
                    return
            except FileNotFoundError:
                pass
        lease = _read_json(path) or {}
        held = int(lease.get("epoch", 0))
        if held > self._epoch:
            raise FencedWriterError(
                f"WAL writer fenced: lease epoch {held} supersedes "
                f"held epoch {self._epoch} "
                f"(owner={lease.get('owner')!r})"
            )

    def _write_lease(self, *, renewed: float | None = None) -> None:
        pinned = _atomic_write_json(
            self._dir / _LEASE_NAME,
            {
                "epoch": self._epoch,
                "owner": self._owner,
                "endpoint": self._endpoint,
                "renewed": time.time() if renewed is None else renewed,
            },
            pin=True,
        )
        self._unpin_lease()
        self._lease_fd = pinned
        self._fsync_dir()

    def _unpin_lease(self) -> None:
        if self._lease_fd is not None:
            os.close(self._lease_fd)
            self._lease_fd = None

    def acquire_lease(
        self, owner: str, endpoint: str | None = None
    ) -> int:
        """Become the directory's fenced writer; returns the epoch.

        The new epoch strictly exceeds every epoch any previous lease
        or fence ever recorded, so a concurrent stale writer fails its
        next :meth:`sync` fence check.  Promotion writes the lease
        *first*, then reads the log tail, then writes the fence
        (:meth:`write_fence`) — which is why the per-sync check only
        needs the lease file.
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        lease = _read_json(self._dir / _LEASE_NAME) or {}
        fence_epoch, _cuts = _read_fence(self._dir)
        self._epoch = (
            max(int(lease.get("epoch", 0)), fence_epoch, self._epoch) + 1
        )
        self._owner = str(owner)
        self._endpoint = endpoint
        self._write_lease()
        return self._epoch

    def write_fence(self, cuts: dict[int, int]) -> None:
        """Record this writer's epoch and the byte-exact per-segment
        ``cuts`` every future reader obeys (promotion step 3)."""
        _atomic_write_json(
            self._dir / _FENCE_NAME,
            {
                "epoch": self._epoch,
                "cuts": {str(index): offset for index, offset in cuts.items()},
            },
        )
        self._fsync_dir()

    def renew_lease(self, endpoint: str | None = None) -> None:
        """Refresh the lease heartbeat; raise if superseded."""
        if not self._epoch:
            return
        self._check_fence()
        if endpoint is not None:
            self._endpoint = endpoint
        self._write_lease()

    def release_lease(self) -> None:
        """Clean shutdown: expire the lease so a standby takes over
        immediately instead of waiting out the timeout."""
        if not self._epoch:
            return
        lease = _read_json(self._dir / _LEASE_NAME) or {}
        if int(lease.get("epoch", 0)) > self._epoch:
            return  # already superseded; the new owner's lease stands
        self._write_lease(renewed=0.0)

    def read_lease(self) -> dict | None:
        return _read_json(self._dir / _LEASE_NAME)

    # -- snapshots + truncation ----------------------------------------

    def note_snapshot(
        self, partition: int, snapshot_seq: int, state: dict
    ) -> None:
        """Adopt partition ``p``'s covering snapshot; prune segments.

        With a directory the snapshot file is replaced atomically
        (tmp + fsync + rename + dir fsync): a crash leaves either the
        old snapshot or the new one, never a torn file.  Only after
        the new snapshot is durable may segments it covers be deleted
        — the prune respects exactly that — and a ``SNAPSHOT`` record,
        which rides the next sync, carries the coverage to tail
        readers.
        """
        if self._dir is not None:
            _atomic_write_json(
                self._snapshot_path(partition, self.state.generation),
                {
                    "partition": partition,
                    "snapshot_seq": snapshot_seq,
                    "state": state,
                },
            )
            self._fsync_dir()
        self._log(("snapshot", snapshot_seq, partition), fault=False)
        self.state.snapshots[partition] = state
        if self._dir is not None:
            self.prune()

    # -- live rebalancing (generations) --------------------------------

    def note_generation_snapshot(
        self,
        generation: int,
        partition: int,
        snapshot_seq: int,
        state: dict,
    ) -> None:
        """Stage a migrated partition's snapshot for a pending rescale.

        Written under the *new* generation's name, so it neither
        collides with the live layout's snapshots (partition numbers
        mean different key sets across generations) nor moves any
        prune watermark — the old layout stays fully recoverable until
        :meth:`commit_rescale` lands the durable decision record.
        """
        if self._dir is not None:
            _atomic_write_json(
                self._snapshot_path(partition, generation),
                {
                    "partition": partition,
                    "snapshot_seq": snapshot_seq,
                    "state": state,
                },
            )
            self._fsync_dir()
        self._staged.setdefault(generation, {})[partition] = state

    def commit_rescale(
        self, generation: int, n_parts: int, cutover_seq: int
    ) -> None:
        """Make a rescale durable: the RESCALE record IS the commit.

        Appends + syncs the record (a crash before this point recovers
        the *old* layout — the staged generation snapshots are ignored
        without the record), and only then moves the replay state to
        the new layout, seals the segment so no file ever mixes
        generations, rewrites ``layout.json`` and retires the old
        layout's snapshots and segments.

        Once the record is framed there is no abort: it may already be
        on disk, and the next sync would write it if not.  Any failure
        from there on raises :class:`~repro.errors.WalCommitError`
        (a fencing trip stays :class:`~repro.errors.FencedWriterError`).
        """
        if generation <= self.state.generation:
            raise CheckpointError(
                f"rescale generation must advance: {generation} after "
                f"{self.state.generation}"
            )
        record = ("rescale", cutover_seq, generation, n_parts)
        if self._dir is not None:
            fault_point_sync("wal.append")
            self._frame(record)
        try:
            self.sync()
            self.state.apply(record)
            self.state.snapshots = self._staged.pop(generation, {})
            self._staged.clear()
            if self._dir is not None:
                self._seal_segment()
                self._write_layout()
                self._drop_superseded_snapshots()
                self.prune()
        except FencedWriterError:
            raise
        except Exception as exc:
            raise WalCommitError(
                f"rescale to generation {generation} was logged but not "
                f"committed: {exc!r}"
            ) from exc

    def _write_layout(self) -> None:
        _atomic_write_json(
            self._dir / _LAYOUT_NAME,
            {
                "generation": self.state.generation,
                "n_parts": self.state.n_parts,
                "seq": self.state.covered_seq,
            },
        )
        self._fsync_dir()

    def _drop_superseded_snapshots(self) -> None:
        """Unlink snapshot files that belong to non-active generations."""
        live = _snapshot_prefix(self.state.generation) + "p"
        for snap_path in self._dir.glob("snapshot-*.json"):
            if not snap_path.name.startswith(live):
                snap_path.unlink(missing_ok=True)

    # -- standby cursors -----------------------------------------------

    def reader_cursors(self) -> list[dict]:
        """Every advertised tail-reader position, freshness-flagged."""
        cursors = []
        now = time.time()
        for path in sorted(self._dir.glob("cursor-*.json")):
            try:
                data = _read_json(path)
            except CheckpointError:
                continue  # half-written by a dying reader: ignore
            if data is None:
                continue
            try:
                updated = float(data["updated"])
                cursor = {
                    "reader": str(data["reader"]),
                    "segment": int(data["segment"]),
                    "offset": int(data["offset"]),
                    "seq": int(data["seq"]),
                    "updated": updated,
                }
            except (KeyError, TypeError, ValueError):
                continue
            cursor["age"] = max(0.0, now - updated)
            cursor["fresh"] = cursor["age"] <= self._reader_ttl
            cursors.append(cursor)
        return cursors

    def prune(self) -> int:
        """Delete the leading run of fully covered, sealed segments.

        Prefix-only on purpose: entries always precede the decision
        records that guard them, so deleting front-to-back can never
        orphan a prepared entry from its commit.  A segment is covered
        when the live layout's snapshots reach past every record in it
        — or when a rescale cutover does (``max_seq <= covered_seq``:
        partition ids change meaning across generations, so per-
        partition watermarks cannot speak for old-layout segments).
        Segments a *fresh* standby cursor has not finished reading are
        deferred, never deleted out from under the tail; stale cursors
        (``reader_ttl``) stop deferring.  Returns the number of
        segments deleted.
        """
        floor: int | None = None
        for cursor in self.reader_cursors():
            if cursor["fresh"] and (
                floor is None or cursor["segment"] < floor
            ):
                floor = cursor["segment"]
        state = self.state
        pruned = 0
        while self._segments:
            meta = self._segments[0]
            if meta is self._current:
                break
            if floor is not None and meta.index >= floor:
                break
            covered = meta.max_seq <= state.covered_seq or meta.covered_by(
                state.snapshot_seqs
            )
            if not covered:
                break
            meta.path.unlink(missing_ok=True)
            self._segments.pop(0)
            pruned += 1
        if pruned:
            self._fsync_dir()
            self.stats["segments_pruned"] += pruned
        return pruned

    # -- introspection / lifecycle -------------------------------------

    @property
    def directory(self) -> Path | None:
        return self._dir

    @property
    def durable(self) -> bool:
        """Does this journal write a directory (vs memory only)?"""
        return self._dir is not None

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def generation(self) -> int:
        return self.state.generation

    @property
    def n_parts(self) -> int | None:
        return self.state.n_parts

    @property
    def last_synced_seq(self) -> int:
        return self._last_synced_seq

    def describe(self) -> dict[str, Any]:
        return {
            "dir": str(self._dir),
            "segments": self.segment_count,
            "segment_bytes": self._segment_bytes,
            "fsync": self._sync,
            "epoch": self._epoch,
            "generation": self.state.generation,
            "covered_seq": self.state.covered_seq,
            "last_synced_seq": self._last_synced_seq,
            **self.stats,
        }

    @staticmethod
    def peek_layout(path: str | Path) -> dict | None:
        """Read ``layout.json`` without opening the WAL (CLI boot uses
        this to size the replica set before any process starts)."""
        layout = _read_json(Path(path) / _LAYOUT_NAME)
        if layout is None:
            return None
        try:
            return {
                "generation": int(layout["generation"]),
                "n_parts": int(layout["n_parts"]),
                "seq": int(layout["seq"]),
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed WAL layout file: {exc}"
            ) from exc

    def close(self) -> None:
        self._unpin_lease()
        if self._file is not None:
            self._seal_segment()

    def abandon(self) -> None:
        """Close as a killed process would: unsynced records are lost.

        Nothing appended since the last :meth:`sync` was acked, so
        dropping it is exactly what ``kill -9`` does to the log.
        """
        self._pending = []
        self._unpin_lease()
        if self._file is not None:
            self._file.close()
            self._file = None
            self._current = None

    def __enter__(self) -> "RouterWal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The standby's segment-follow reader
# ----------------------------------------------------------------------


class WalTail:
    """Incremental, read-only follower of a live :class:`RouterWal`.

    A warm standby polls this to mirror the primary's replay state
    *while the primary is writing*: each :meth:`poll` consumes every
    complete record appended since the last one (reads go through the
    page cache, so synced — hence ackable — records are always
    visible) and applies it to :attr:`state`, the same replay state
    the writer and cold recovery keep.  ``SNAPSHOT`` records drop the
    covered entries, so the tape stays within about one snapshot
    interval.  Snapshot *states* are read from their files only when
    the tail starts reading (or finds a segment pruned from under it)
    and at promotion (:meth:`_ReplayState.adopt_files`).
    The tail advertises its position in ``cursor-<reader>.json`` so
    the primary's :meth:`RouterWal.prune` defers deleting segments it
    has not finished.

    A partially visible record at the tail of the last segment is
    simply *not consumed yet* — the writer either completes it (next
    poll picks it up) or died mid-write (it was never synced, so never
    acked, and the promotion cut excludes it).  The consumed offset
    therefore always sits on a record boundary, which is what makes
    ``fence.json``'s byte cuts exact.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        reader_id: str = "standby",
        write_cursor: bool = True,
    ) -> None:
        self._dir = Path(path)
        self.reader_id = str(reader_id)
        self._write_cursor = bool(write_cursor)
        self._offsets: dict[int, int] = {}  # index -> consumed bytes
        self._epochs: dict[int, int] = {}
        self._metas: dict[int, _SegmentMeta] = {}
        self._skip: set[int] = set()  # post-fence garbage segments
        self._current: int | None = None
        self._started = False
        self._max_index_seen = 0
        self.records_consumed = 0
        #: what a cold load() of the directory would hand back
        self.state = _ReplayState()

    # -- consuming the log ---------------------------------------------

    def poll(self) -> int:
        """Consume every newly visible complete record; returns count."""
        fault_point_sync("standby.tail")
        fence_epoch, cuts = _read_fence(self._dir)
        on_disk: dict[int, Path] = {}
        for seg_path in sorted(self._dir.glob("wal-*.log")):
            index = int(seg_path.stem.split("-")[1])
            on_disk[index] = seg_path
            self._max_index_seen = max(self._max_index_seen, index)
        index = self._current
        if index is None or index not in on_disk:
            # Starting (again once a first segment shows up), or the
            # segment was pruned out from under us (the cursor went
            # stale): only covered segments prune, so the layout and
            # snapshot files hold whatever the tail has not read.
            if index is not None or on_disk or not self._started:
                self.state.adopt_files(self._dir)
                self._started = True
            self._offsets.pop(index, None)
            self._metas.pop(index, None)
            self._current = min(
                (i for i in on_disk if index is None or i > index),
                default=None,
            )
        last = max(on_disk, default=0)
        consumed = 0
        while self._current is not None:
            index = self._current
            count, done = self._consume(
                index, on_disk[index], fence_epoch, cuts, index < last
            )
            consumed += count
            if not done or index == last:
                break
            self._current = min(i for i in on_disk if i > index)
        self.records_consumed += consumed
        self._write_cursor_file()
        return consumed

    def _consume(
        self,
        index: int,
        path: Path,
        fence_epoch: int,
        cuts: dict[int, int],
        sealed: bool,
    ) -> tuple[int, bool]:
        try:
            fh = open(path, "rb")
        except FileNotFoundError:  # pruned between glob and open
            return 0, False
        with fh:
            offset = self._offsets.get(index)
            if offset is None:
                head_bytes = fh.read(_SEGMENT_HEAD)
                if _header_unwritten(head_bytes):
                    # Created but not flushed yet: nothing to read, and
                    # no offset cached, so the next poll re-reads it.
                    return 0, False
                epoch, offset = _segment_header(head_bytes, path.name)
                self._epochs[index] = epoch
                self._metas[index] = _SegmentMeta(path, index)
                self._offsets[index] = offset
            if index in self._skip:
                return 0, True
            limit = None
            if fence_epoch and self._epochs[index] < fence_epoch:
                if index not in cuts:
                    # Created by a fenced writer after promotion read
                    # the log: nothing in it was ever acked.
                    self._skip.add(index)
                    self._metas.pop(index, None)
                    return 0, True
                limit = cuts[index]
                sealed = True
                if offset >= limit:
                    return 0, True
            fh.seek(offset)
            data = fh.read() if limit is None else fh.read(limit - offset)
        meta = self._metas[index]
        count = 0
        end = 0
        for record, end in _records(
            data, 0, path.name, sealed=sealed, base=offset
        ):
            meta.note(record)
            self.state.apply(record)
            self._offsets[index] = offset + end
            count += 1
        return count, end == len(data)

    # -- cursor + promotion handoff ------------------------------------

    def _cursor_path(self) -> Path:
        return self._dir / f"cursor-{self.reader_id}.json"

    def _write_cursor_file(self) -> None:
        """Advertise the read position; also the reader's heartbeat.

        Rewritten every poll, moved or not: a cursor not refreshed for
        ``reader_ttl`` stops pinning prune.  Not fsynced — a cursor
        lost or rolled back by a machine crash only pins less (or
        more) until the next poll, and a restarted tail re-reads from
        the oldest retained segment whatever the file said.
        """
        if not self._write_cursor:
            return
        index = self._current
        if index is None:
            index, offset = 0, 0
        else:
            offset = self._offsets.get(index, 0)
        try:
            _atomic_write_json(
                self._cursor_path(),
                {
                    "reader": self.reader_id,
                    "segment": index,
                    "offset": offset,
                    "seq": self.state.last_seq,
                    "updated": time.time(),
                },
                durable=False,
            )
        except OSError:  # pragma: no cover - directory racing teardown
            pass

    def remove_cursor(self) -> None:
        """Stop pinning prune (promotion or clean shutdown)."""
        self._cursor_path().unlink(missing_ok=True)

    @property
    def next_index(self) -> int:
        return self._max_index_seen + 1

    def cuts(self) -> dict[int, int]:
        """Byte-exact consumed offsets per segment, for ``fence.json``."""
        return {
            index: offset
            for index, offset in sorted(self._offsets.items())
            if index not in self._skip
        }

    def segment_metas(self) -> list[_SegmentMeta]:
        """Prune bookkeeping for the segments still on disk, in order
        (handed to the promoted writer by :meth:`RouterWal.adopt`)."""
        return [
            self._metas[index]
            for index in sorted(self._metas)
            if self._metas[index].path.exists()
        ]

    def describe(self) -> dict[str, Any]:
        return {
            "reader": self.reader_id,
            "segment": self._current or 0,
            "offset": (
                self._offsets.get(self._current, 0)
                if self._current is not None
                else 0
            ),
            "seq": self.state.last_seq,
            "records_consumed": self.records_consumed,
            "generation": self.state.generation,
        }
