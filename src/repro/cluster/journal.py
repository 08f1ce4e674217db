"""Per-partition replay journals for the cluster router + durable WAL.

The journal IS the recovery buffer: every wire batch the router
accepts is partitioned and appended here — tagged with its ``seq``
serialization token — *before* anything is sent to a replica.  A
replica that dies is brought back by restoring its partition's last
snapshot and replaying the journal entries behind it in ``seq`` order;
because the restore rewinds the replica to the snapshot first, a send
that raced the crash (applied on the old process, or half-delivered)
is wiped and the replay is exact, never double-counted.

Entries are only ever dropped by :meth:`PartitionJournal.clear`, which
the router calls immediately after a successful snapshot: the router's
pipeline is synchronous (one flusher task appends, delivers, then
snapshots), so at snapshot time every entry present has been delivered
on the replica's ordered connection *before* the checkpoint request —
the snapshot covers them all by construction.

:class:`RouterWal` is the same tape made durable: an fsync'd,
CRC-framed on-disk log that survives the *router* process.  Records
are appended (and synced) before any replica sees a byte, so a client
ack always has a durable record behind it; segments rotate at a byte
threshold and a leading run of segments is deleted once the persisted
partition snapshots cover everything in them.  A cold router pointed
at the same directory recovers exactly like a replica does — snapshot
load + ``seq``-ordered replay — with zero acknowledged-event loss
(see :meth:`RouterWal.load` for the torn-tail rule that makes a crash
mid-write safe).

Record framing (little-endian)::

    <u32 payload length> <u32 crc32(payload)> <payload>

with payloads::

    ENTRY / PENTRY:  <u8 type> <u32 partition> <u64 seq> <u32 count>
                     <count x i64 ids> <count x i64 deltas>
    COMMIT / ABORT:  <u8 type> <u64 seq> <u32 n> <n x u32 partitions>

``ENTRY`` is a committed partitioned wire batch (the non-strict
path).  ``PENTRY`` is the 2PC prepare half: it counts only when a
later ``COMMIT`` for its ``seq`` lands; an ``ABORT`` — or no decision
at all, the crashed-before-deciding case — drops it at replay (no
replica can have applied it: commits are only sent after the decision
record is durable).

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

from repro.errors import CheckpointError, FencedWriterError
from repro.testing.faults import fault_point_sync

__all__ = [
    "JournalEntry",
    "PartitionJournal",
    "RouterWal",
    "WalRecovery",
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


class PartitionJournal:
    """Seq-ordered post-snapshot wire batches for one partition."""

    __slots__ = (
        "partition", "_entries", "snapshot_seq", "appended_total", "events"
    )

    def __init__(self, partition: int) -> None:
        self.partition = partition
        self._entries: list[JournalEntry] = []
        #: ``seq`` high-water mark covered by the partition's snapshot
        #: (0 before the first snapshot: "empty replica" is the
        #: implicit snapshot every replica process boots with).
        self.snapshot_seq = 0
        self.appended_total = 0
        #: events held on the tape (the replay cost a snapshot saves)
        self.events = 0

    def append(self, seq: int, ids, deltas) -> JournalEntry:
        """Record one partitioned wire batch (before it is sent)."""
        if self._entries and seq <= self._entries[-1].seq:
            raise ValueError(
                f"journal seq must be monotonic: {seq} after "
                f"{self._entries[-1].seq}"
            )
        entry = JournalEntry(seq, ids, deltas)
        self._entries.append(entry)
        self.appended_total += 1
        self.events += len(entry)
        return entry

    def entries(self) -> Iterator[JournalEntry]:
        """The replay tape, in ``seq`` order."""
        return iter(self._entries)

    def clear(self, snapshot_seq: int) -> int:
        """A snapshot covering ``snapshot_seq`` landed; drop the tape.

        Returns the number of entries retired.  Every current entry is
        covered (see the module docstring), so this asserts rather
        than filters — a partial truncation would mean the router's
        synchronous-pipeline invariant broke.
        """
        if self._entries and self._entries[-1].seq > snapshot_seq:
            raise ValueError(
                f"snapshot at seq {snapshot_seq} does not cover journal "
                f"tail at seq {self._entries[-1].seq}"
            )
        retired = len(self._entries)
        self._entries = []
        self.events = 0
        self.snapshot_seq = max(self.snapshot_seq, snapshot_seq)
        return retired

    @property
    def last_seq(self) -> int:
        """Highest ``seq`` this partition has seen (journal or snapshot)."""
        if self._entries:
            return self._entries[-1].seq
        return self.snapshot_seq

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"PartitionJournal(partition={self.partition}, "
            f"entries={len(self._entries)}, "
            f"snapshot_seq={self.snapshot_seq})"
        )


# ----------------------------------------------------------------------
# The durable write-ahead log
# ----------------------------------------------------------------------

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

_REC_ENTRY = 1
_REC_PENTRY = 2
_REC_COMMIT = 3
_REC_ABORT = 4
_REC_RESCALE = 5

_LEASE_NAME = "lease.json"
_FENCE_NAME = "fence.json"
_LAYOUT_NAME = "layout.json"


def _pack_i64(values) -> bytes:
    return _np.ascontiguousarray(values, dtype="<i8").tobytes()


def _unpack_i64(buf: bytes):
    return _np.frombuffer(buf, dtype="<i8")


def _atomic_write_json(
    path: Path, payload: dict, *, durable: bool = True
) -> None:
    """tmp + fsync + rename: readers see the old file or the new one.

    ``durable=False`` skips the fsync, for advisory files whose loss in
    a machine crash is harmless: the rename alone keeps them atomic
    for readers.
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
    os.replace(tmp, path)


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


def _parse_record(payload: bytes) -> tuple:
    """Decode one WAL record payload into a tagged tuple.

    Shared by cold recovery (:meth:`RouterWal.load`) and the live
    standby reader (:class:`WalTail`) so the two can never disagree
    about what a record means.  Returns one of::

        ("entry", partition, seq, ids, deltas, prepared)
        ("decision", seq, partitions, commit)
        ("rescale", generation, n_parts, seq)
    """
    rec_type = payload[0]
    if rec_type in (_REC_ENTRY, _REC_PENTRY):
        _t, partition, seq, count = _ENTRY_HEAD.unpack_from(payload)
        arrays = payload[_ENTRY_HEAD.size :]
        if len(arrays) != 16 * count:
            raise CheckpointError(
                f"WAL entry declares {count} events but carries "
                f"{len(arrays)} array bytes"
            )
        ids = _unpack_i64(arrays[: 8 * count])
        deltas = _unpack_i64(arrays[8 * count :])
        return ("entry", partition, seq, ids, deltas,
                rec_type == _REC_PENTRY)
    if rec_type in (_REC_COMMIT, _REC_ABORT):
        _t, seq, n_parts = _DECISION_HEAD.unpack_from(payload)
        parts = struct.unpack_from(
            f"<{n_parts}I", payload, _DECISION_HEAD.size
        )
        return ("decision", seq, parts, rec_type == _REC_COMMIT)
    if rec_type == _REC_RESCALE:
        _t, generation, n_parts, seq = _RESCALE_HEAD.unpack_from(payload)
        return ("rescale", generation, n_parts, seq)
    raise CheckpointError(f"unknown WAL record type {rec_type}")


class WalRecovery:
    """What :meth:`RouterWal.load` found on disk.

    ``snapshots`` maps partition -> persisted facade state (absent
    partitions boot from the implicit empty snapshot);
    ``snapshot_seqs`` maps partition -> the seq that snapshot covers;
    ``entries`` maps partition -> committed :class:`JournalEntry` list
    in ``seq`` order, post-snapshot only; ``last_seq`` is the highest
    seq the log has ever assigned (committed, aborted or undecided —
    a reborn router must never reuse one).  ``generation`` and
    ``n_parts`` carry the rescale layout the log ended on
    (``n_parts`` is ``None`` when the log predates any rescale, i.e.
    the boot-time partition count stands); ``covered_seq`` is the
    last rescale cutover — every event at or below it lives inside
    the generation's snapshots.
    """

    __slots__ = (
        "snapshots",
        "snapshot_seqs",
        "entries",
        "last_seq",
        "generation",
        "n_parts",
        "covered_seq",
    )

    def __init__(self) -> None:
        self.snapshots: dict[int, dict] = {}
        self.snapshot_seqs: dict[int, int] = {}
        self.entries: dict[int, list[JournalEntry]] = {}
        self.last_seq = 0
        self.generation = 0
        self.n_parts: int | None = None
        self.covered_seq = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WalRecovery(snapshots={sorted(self.snapshots)}, "
            f"entries={{{', '.join(f'{p}: {len(e)}' for p, e in sorted(self.entries.items()))}}}, "
            f"last_seq={self.last_seq})"
        )


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

    def note(self, partition: int, seq: int) -> None:
        if seq > self.parts.get(partition, 0):
            self.parts[partition] = seq
        if seq > self.max_seq:
            self.max_seq = seq

    def covered_by(self, snapshot_seqs: dict[int, int]) -> bool:
        return all(
            snapshot_seqs.get(p, 0) >= seq
            for p, seq in self.parts.items()
        )


class RouterWal:
    """The fsync'd on-disk half of the router's journal.

    Parameters
    ----------
    path:
        The WAL directory (created if missing): ``wal-<n>.log``
        segments plus one ``snapshot-p<p>.json`` per partition.
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
        path: str | Path,
        *,
        segment_bytes: int = 1 << 20,
        sync: bool = True,
        reader_ttl: float = 30.0,
    ) -> None:
        if segment_bytes < 4096:
            raise CheckpointError(
                f"segment_bytes must be >= 4096, got {segment_bytes}"
            )
        self._dir = Path(path)
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
        self._snapshot_seqs: dict[int, int] = {}
        self._dirty = False
        #: fencing epoch this writer holds the lease at; 0 = fencing
        #: disarmed (standalone use: no lease, no per-sync check).
        self._epoch = 0
        #: rescale layout: generation counter, partition count as of
        #: the last committed RESCALE (None = pre-rescale log), and
        #: the cutover seq its snapshots cover.
        self._generation = 0
        self._n_parts: int | None = None
        self._covered_seq = 0
        self._last_appended_seq = 0
        self._last_synced_seq = 0
        self._owner = ""
        self._endpoint: str | None = None
        #: generation -> {partition -> seq} staged by
        #: note_generation_snapshot, adopted at commit_rescale.
        self._staged_snapshot_seqs: dict[int, dict[int, int]] = {}
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

    def _snapshot_path(self, partition: int, generation: int | None = None) -> Path:
        gen = self._generation if generation is None else generation
        if gen == 0:
            return self._dir / f"snapshot-p{partition}.json"
        return self._dir / f"snapshot-g{gen}-p{partition}.json"

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

    def load(self) -> WalRecovery:
        """Read everything back; open a fresh segment for new appends.

        Snapshot files first (each is an atomic whole — tmp + fsync +
        rename), then every segment in index order.  A broken record
        at the very tail of the *last* segment is a torn write from
        the crash: it cannot have been acked (acks wait for
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
        self._dir.mkdir(parents=True, exist_ok=True)
        recovery = WalRecovery()

        fence = _read_json(self._dir / _FENCE_NAME) or {}
        fence_epoch = int(fence.get("epoch", 0))
        cuts = {int(k): int(v) for k, v in fence.get("cuts", {}).items()}

        layout = _read_json(self._dir / _LAYOUT_NAME)
        if layout is not None:
            self._generation = int(layout["generation"])
            self._n_parts = int(layout["n_parts"])
            self._covered_seq = int(layout["seq"])

        snaps_by_gen = self._load_snapshot_files()
        self._apply_generation(recovery, snaps_by_gen, self._generation)
        recovery.covered_seq = self._covered_seq
        recovery.n_parts = self._n_parts

        segments = sorted(self._dir.glob("wal-*.log"))
        scan: list[tuple[Path, int, int | None]] = []
        for seg_path in segments:
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
        ctx = {"snaps_by_gen": snaps_by_gen}
        prepared: dict[int, list[tuple[int, Any, Any]]] = {}
        for i, (seg_path, index, cut) in enumerate(scan):
            meta = _SegmentMeta(seg_path, index)
            self._segments.append(meta)
            self._scan_segment(
                seg_path,
                meta,
                recovery,
                prepared,
                last=i == len(scan) - 1,
                cut=cut,
                ctx=ctx,
            )
        # Prepared-without-decision: the router died before the commit
        # record hit disk, so no replica was told to commit — dropped.
        # (They still counted into last_seq above: never reuse a seq.)
        prepared.clear()
        if recovery.generation != int((layout or {}).get("generation", 0)):
            # The RESCALE record is the commit point; the layout file
            # is a convenience that can lag one crash behind.  Repair.
            self._write_layout()
        self._drop_superseded_snapshots()
        self.prune()
        return recovery

    def _load_snapshot_files(self) -> dict[int, dict[int, tuple[int, dict]]]:
        """All persisted snapshots, keyed ``generation -> partition``."""
        snaps: dict[int, dict[int, tuple[int, dict]]] = {}
        for snap_path in sorted(self._dir.glob("snapshot-*.json")):
            stem = snap_path.stem  # snapshot-p3 | snapshot-g2-p3
            parts = stem.split("-")
            try:
                if len(parts) == 2 and parts[1].startswith("p"):
                    gen = 0
                    partition = int(parts[1][1:])
                elif (
                    len(parts) == 3
                    and parts[1].startswith("g")
                    and parts[2].startswith("p")
                ):
                    gen = int(parts[1][1:])
                    partition = int(parts[2][1:])
                else:
                    continue
                payload = json.loads(snap_path.read_text())
                seq = int(payload["snapshot_seq"])
                state = payload["state"]
                if int(payload["partition"]) != partition:
                    raise ValueError("partition mismatch with filename")
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointError(
                    f"malformed WAL snapshot {snap_path.name}: {exc}"
                ) from exc
            snaps.setdefault(gen, {})[partition] = (seq, state)
        return snaps

    def _apply_generation(
        self,
        recovery: WalRecovery,
        snaps_by_gen: dict,
        generation: int,
    ) -> None:
        """Point ``recovery`` (and the prune watermarks) at one gen."""
        recovery.generation = generation
        recovery.snapshots = {}
        recovery.snapshot_seqs = {}
        for partition, (seq, state) in sorted(
            snaps_by_gen.get(generation, {}).items()
        ):
            recovery.snapshots[partition] = state
            recovery.snapshot_seqs[partition] = seq
            recovery.last_seq = max(recovery.last_seq, seq)
        self._snapshot_seqs = dict(recovery.snapshot_seqs)

    def _scan_segment(
        self,
        seg_path: Path,
        meta: _SegmentMeta,
        recovery: WalRecovery,
        prepared: dict,
        *,
        last: bool,
        cut: int | None = None,
        ctx: dict | None = None,
    ) -> None:
        data = seg_path.read_bytes()
        if cut is not None and len(data) > cut:
            # Bytes past the promotion cut were never acked (the
            # standby fenced the writer before reading to the cut);
            # scrub them so the file matches what replays.
            with open(seg_path, "r+b") as fh:
                fh.truncate(cut)
                fh.flush()
                os.fsync(fh.fileno())
            data = data[:cut]
        _epoch, head = _segment_header(data, seg_path.name)
        offset = head
        good = offset
        n = len(data)
        while offset < n:
            torn = None
            corrupt = None
            if offset + _FRAME.size > n:
                torn = "truncated frame header"
            else:
                length, crc = _FRAME.unpack_from(data, offset)
                body_at = offset + _FRAME.size
                if body_at + length > n:
                    torn = "truncated record body"
                else:
                    payload = data[body_at : body_at + length]
                    if zlib.crc32(payload) != crc:
                        # A torn write is a *prefix* of one record, so a
                        # crc-bad record followed by more bytes cannot be
                        # the crash artifact — that is real corruption.
                        if body_at + length == n:
                            torn = "crc mismatch in final record"
                        else:
                            corrupt = "crc mismatch"
            if corrupt is not None:
                raise CheckpointError(
                    f"corrupt WAL record in {seg_path.name} at byte "
                    f"{offset} ({corrupt}) — records follow it, so this "
                    f"is not a torn tail"
                )
            if torn is not None:
                if last:
                    # Torn tail: crash mid-write, never acked. Truncate
                    # so the next recovery sees a clean tape.
                    with open(seg_path, "r+b") as fh:
                        fh.truncate(good)
                        fh.flush()
                        os.fsync(fh.fileno())
                    return
                raise CheckpointError(
                    f"corrupt WAL record in {seg_path.name} at byte "
                    f"{offset} ({torn}) — not the last segment, so "
                    f"this is not a torn tail"
                )
            self._replay_record(payload, meta, recovery, prepared, ctx)
            offset = body_at + length
            good = offset

    def _replay_record(
        self,
        payload: bytes,
        meta: _SegmentMeta,
        recovery: WalRecovery,
        prepared: dict,
        ctx: dict | None = None,
    ) -> None:
        record = _parse_record(payload)
        if record[0] == "entry":
            _kind, partition, seq, ids, deltas, is_prepared = record
            meta.note(partition, seq)
            recovery.last_seq = max(recovery.last_seq, seq)
            if seq <= recovery.covered_seq:
                return  # a later rescale's snapshots already cover it
            if is_prepared:
                prepared.setdefault(seq, []).append((partition, ids, deltas))
            else:
                self._recover_entry(recovery, partition, seq, ids, deltas)
        elif record[0] == "decision":
            _kind, seq, parts, commit = record
            recovery.last_seq = max(recovery.last_seq, seq)
            for p in parts:
                meta.note(p, seq)
            staged = prepared.pop(seq, [])
            if commit and seq > recovery.covered_seq:
                for partition, ids, deltas in staged:
                    self._recover_entry(
                        recovery, partition, seq, ids, deltas
                    )
        else:  # rescale
            _kind, generation, n_parts, seq = record
            meta.max_seq = max(meta.max_seq, seq)
            recovery.last_seq = max(recovery.last_seq, seq)
            if generation <= recovery.generation:
                return  # replayed history behind the current layout
            # The durable cutover: everything buffered so far lives
            # inside generation ``generation``'s snapshots.
            recovery.entries.clear()
            prepared.clear()
            recovery.n_parts = n_parts
            recovery.covered_seq = seq
            self._generation = generation
            self._n_parts = n_parts
            self._covered_seq = seq
            self._apply_generation(
                recovery, (ctx or {}).get("snaps_by_gen", {}), generation
            )

    def _recover_entry(
        self, recovery: WalRecovery, partition: int, seq: int, ids, deltas
    ) -> None:
        if seq <= recovery.snapshot_seqs.get(partition, 0):
            return  # the persisted snapshot already covers it
        recovery.entries.setdefault(partition, []).append(
            JournalEntry(seq, ids, deltas)
        )

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

    def _append(self, payload: bytes) -> None:
        fault_point_sync("wal.append")
        self._writer()
        self._pending.append(
            _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        )
        self._dirty = True
        self.stats["records"] += 1
        self.stats["bytes"] += _FRAME.size + len(payload)

    def append_entry(
        self, partition: int, seq: int, ids, deltas, *, prepared: bool = False
    ) -> None:
        """Record one partitioned wire batch (before anything is sent).

        ``prepared=True`` writes the 2PC ``PENTRY`` flavor, which only
        counts at replay once a ``COMMIT`` decision follows it.
        """
        count = len(ids)
        payload = (
            _ENTRY_HEAD.pack(
                _REC_PENTRY if prepared else _REC_ENTRY,
                partition,
                seq,
                count,
            )
            + _pack_i64(ids)
            + _pack_i64(deltas)
        )
        self._append(payload)
        self._current.note(partition, seq)
        self._last_appended_seq = max(self._last_appended_seq, seq)

    def append_decision(self, seq: int, partitions, *, commit: bool) -> None:
        """Record the 2PC decision for ``seq`` over ``partitions``."""
        parts = sorted(int(p) for p in partitions)
        payload = _DECISION_HEAD.pack(
            _REC_COMMIT if commit else _REC_ABORT, seq, len(parts)
        ) + struct.pack(f"<{len(parts)}I", *parts)
        self._append(payload)
        for p in parts:
            self._current.note(p, seq)
        self._last_appended_seq = max(self._last_appended_seq, seq)

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
        self._last_synced_seq = self._last_appended_seq
        self.stats["syncs"] += 1
        fault_point_sync("wal.synced")

    # -- fencing lease -------------------------------------------------

    def _check_fence(self) -> None:
        if not self._epoch:
            return
        lease = _read_json(self._dir / _LEASE_NAME) or {}
        held = int(lease.get("epoch", 0))
        if held > self._epoch:
            raise FencedWriterError(
                f"WAL writer fenced: lease epoch {held} supersedes "
                f"held epoch {self._epoch} "
                f"(owner={lease.get('owner')!r})"
            )

    def _write_lease(self, *, renewed: float | None = None) -> None:
        _atomic_write_json(
            self._dir / _LEASE_NAME,
            {
                "epoch": self._epoch,
                "owner": self._owner,
                "endpoint": self._endpoint,
                "renewed": time.time() if renewed is None else renewed,
            },
        )
        self._fsync_dir()

    def acquire_lease(
        self, owner: str, endpoint: str | None = None
    ) -> int:
        """Become the directory's fenced writer; returns the epoch.

        The new epoch strictly exceeds every epoch any previous lease
        or fence ever recorded, so a concurrent stale writer fails its
        next :meth:`sync` fence check.  Promotion writes the lease
        *first*, then reads the log tail, then writes ``fence.json`` —
        which is why the per-sync check only needs the lease file.
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        lease = _read_json(self._dir / _LEASE_NAME) or {}
        fence = _read_json(self._dir / _FENCE_NAME) or {}
        self._epoch = (
            max(
                int(lease.get("epoch", 0)),
                int(fence.get("epoch", 0)),
                self._epoch,
            )
            + 1
        )
        self._owner = str(owner)
        self._endpoint = endpoint
        self._write_lease()
        return self._epoch

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
        """Persist partition ``p``'s covering snapshot; prune segments.

        Atomic replace (tmp + fsync + rename + dir fsync): a crash
        leaves either the old snapshot or the new one, never a torn
        file.  Only after the new snapshot is durable may segments it
        covers be deleted — the prune respects exactly that.
        """
        path = self._snapshot_path(partition)
        _atomic_write_json(
            path,
            {
                "partition": partition,
                "snapshot_seq": snapshot_seq,
                "state": state,
            },
        )
        self._fsync_dir()
        self._snapshot_seqs[partition] = max(
            self._snapshot_seqs.get(partition, 0), snapshot_seq
        )
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
        _atomic_write_json(
            self._snapshot_path(partition, generation),
            {
                "partition": partition,
                "snapshot_seq": snapshot_seq,
                "state": state,
            },
        )
        self._fsync_dir()
        self._staged_snapshot_seqs.setdefault(generation, {})[
            partition
        ] = snapshot_seq

    def commit_rescale(
        self, generation: int, n_parts: int, cutover_seq: int
    ) -> None:
        """Make a rescale durable: the RESCALE record IS the commit.

        Appends + syncs the record (a crash before this point recovers
        the *old* layout — the staged generation snapshots are ignored
        without the record), seals the segment so no file ever mixes
        generations, then rewrites ``layout.json`` and retires the old
        layout's snapshots and segments.
        """
        if generation <= self._generation:
            raise CheckpointError(
                f"rescale generation must advance: {generation} after "
                f"{self._generation}"
            )
        payload = _RESCALE_HEAD.pack(
            _REC_RESCALE, generation, n_parts, cutover_seq
        )
        self._append(payload)
        self._current.max_seq = max(self._current.max_seq, cutover_seq)
        self._last_appended_seq = max(self._last_appended_seq, cutover_seq)
        self.sync()
        self._seal_segment()
        self._generation = generation
        self._n_parts = n_parts
        self._covered_seq = cutover_seq
        self._snapshot_seqs = dict(
            self._staged_snapshot_seqs.pop(generation, {})
        )
        self._staged_snapshot_seqs.clear()
        self._write_layout()
        self._drop_superseded_snapshots()
        self.prune()

    def _write_layout(self) -> None:
        _atomic_write_json(
            self._dir / _LAYOUT_NAME,
            {
                "generation": self._generation,
                "n_parts": self._n_parts,
                "seq": self._covered_seq,
            },
        )
        self._fsync_dir()

    def _drop_superseded_snapshots(self) -> None:
        """Unlink snapshot files that belong to non-active generations."""
        for snap_path in self._dir.glob("snapshot-*.json"):
            parts = snap_path.stem.split("-")
            if len(parts) == 2 and parts[1].startswith("p"):
                gen = 0
            elif len(parts) == 3 and parts[1].startswith("g"):
                try:
                    gen = int(parts[1][1:])
                except ValueError:  # pragma: no cover - foreign file
                    continue
            else:  # pragma: no cover - foreign file
                continue
            if gen != self._generation:
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
        pruned = 0
        while self._segments:
            meta = self._segments[0]
            if meta is self._current:
                break
            if floor is not None and meta.index >= floor:
                break
            covered = meta.max_seq <= self._covered_seq or meta.covered_by(
                self._snapshot_seqs
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
    def directory(self) -> Path:
        return self._dir

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def n_parts(self) -> int | None:
        return self._n_parts

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
            "generation": self._generation,
            "covered_seq": self._covered_seq,
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

    @classmethod
    def resume_at(
        cls,
        path: str | Path,
        *,
        epoch: int,
        next_index: int,
        generation: int = 0,
        n_parts: int | None = None,
        covered_seq: int = 0,
        last_seq: int = 0,
        snapshot_seqs: dict[int, int] | None = None,
        segments: list[_SegmentMeta] | None = None,
        owner: str = "",
        segment_bytes: int = 1 << 20,
        sync: bool = True,
        reader_ttl: float = 30.0,
    ) -> "RouterWal":
        """Warm-promotion constructor: adopt a tail reader's view.

        A promoted standby already holds the directory's full replay
        state (it tailed every record), so re-scanning via
        :meth:`load` would only burn promotion time.  This builds a
        writer positioned *after* everything on disk: appends open a
        fresh segment stamped with the new fencing ``epoch``, and the
        handed-over segment metadata keeps prune exact.
        """
        wal = cls(
            path,
            segment_bytes=segment_bytes,
            sync=sync,
            reader_ttl=reader_ttl,
        )
        wal._epoch = int(epoch)
        wal._next_index = max(int(next_index), 1)
        wal._generation = int(generation)
        wal._n_parts = n_parts
        wal._covered_seq = int(covered_seq)
        wal._last_appended_seq = int(last_seq)
        wal._last_synced_seq = int(last_seq)
        wal._snapshot_seqs = dict(snapshot_seqs or {})
        wal._segments = list(segments or [])
        wal._owner = str(owner)
        return wal

    def close(self) -> None:
        if self._file is not None:
            self._seal_segment()

    def abandon(self) -> None:
        """Close as a killed process would: unsynced records are lost.

        Nothing appended since the last :meth:`sync` was acked, so
        dropping it is exactly what ``kill -9`` does to the log.
        """
        self._pending = []
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
    visible), maintains the same shadow state cold recovery would
    build (snapshots + post-snapshot entries + 2PC staging + rescale
    generation), and advertises its position in ``cursor-<reader>.
    json`` so the primary's :meth:`RouterWal.prune` defers deleting
    segments it has not finished.

    A partially visible record at the tail is simply *not consumed
    yet* — the writer either completes it (next poll picks it up) or
    died mid-write (it was never synced, so never acked, and the
    promotion cut excludes it).  The consumed offset therefore always
    sits on a record boundary, which is what makes ``fence.json``'s
    byte cuts exact.
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
        self._max_index_seen = 0
        # Shadow replay state (what a cold load() would hand back).
        self.snapshots: dict[int, dict] = {}
        self.snapshot_seqs: dict[int, int] = {}
        self.entries: dict[int, list[JournalEntry]] = {}
        self._prepared: dict[int, list[tuple[int, Any, Any]]] = {}
        self.last_seq = 0
        self.generation = 0
        self.n_parts: int | None = None
        self.covered_seq = 0
        self.records_consumed = 0
        layout = RouterWal.peek_layout(self._dir)
        if layout is not None:
            self.generation = layout["generation"]
            self.n_parts = layout["n_parts"]
            self.covered_seq = layout["seq"]
            self.last_seq = max(self.last_seq, self.covered_seq)
        self.refresh_snapshots()

    # -- shadow snapshots ----------------------------------------------

    def _snapshot_glob(self) -> str:
        if self.generation == 0:
            return "snapshot-p*.json"
        return f"snapshot-g{self.generation}-p*.json"

    def refresh_snapshots(self) -> None:
        """Adopt snapshots the primary persisted since the last call.

        Anything a newly covering snapshot includes is dropped from
        the in-memory entry tape — this is what bounds the standby's
        memory to roughly one snapshot interval of entries, mirroring
        the primary's own journal truncation.
        """
        for snap_path in sorted(self._dir.glob(self._snapshot_glob())):
            try:
                payload = json.loads(snap_path.read_text())
                partition = int(payload["partition"])
                seq = int(payload["snapshot_seq"])
                state = payload["state"]
            except FileNotFoundError:  # pruned mid-glob by the writer
                continue
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointError(
                    f"malformed WAL snapshot {snap_path.name}: {exc}"
                ) from exc
            if seq >= self.snapshot_seqs.get(partition, 0):
                self.snapshot_seqs[partition] = seq
                self.snapshots[partition] = state
                if partition in self.entries:
                    self.entries[partition] = [
                        e for e in self.entries[partition] if e.seq > seq
                    ]
                self.last_seq = max(self.last_seq, seq)

    # -- consuming the log ---------------------------------------------

    def poll(self) -> int:
        """Consume every newly visible complete record; returns count."""
        fault_point_sync("standby.tail")
        fence = _read_json(self._dir / _FENCE_NAME) or {}
        fence_epoch = int(fence.get("epoch", 0))
        cuts = {int(k): int(v) for k, v in fence.get("cuts", {}).items()}
        on_disk: dict[int, Path] = {}
        for seg_path in sorted(self._dir.glob("wal-*.log")):
            index = int(seg_path.stem.split("-")[1])
            on_disk[index] = seg_path
            self._max_index_seen = max(self._max_index_seen, index)
        if not on_disk:
            self._write_cursor_file()
            return 0
        if self._current is None:
            self._current = min(on_disk)
        consumed = 0
        while True:
            index = self._current
            if index not in on_disk:
                later = [i for i in on_disk if i > index]
                if not later:
                    break
                # Pruned out from under us: only covered segments
                # prune, so the refreshed snapshots hold their events.
                self.refresh_snapshots()
                self._offsets.pop(index, None)
                self._metas.pop(index, None)
                self._current = min(later)
                continue
            count, done = self._consume_segment(
                index, on_disk[index], fence_epoch, cuts
            )
            consumed += count
            later = [i for i in on_disk if i > index]
            if not done or not later:
                break
            self._current = min(later)
        self.records_consumed += consumed
        self._write_cursor_file()
        return consumed

    def _consume_segment(
        self,
        index: int,
        path: Path,
        fence_epoch: int,
        cuts: dict[int, int],
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
                if index in cuts:
                    limit = cuts[index]
                else:
                    # Created by a fenced writer after promotion read
                    # the log: nothing in it was ever acked.
                    self._skip.add(index)
                    self._metas.pop(index, None)
                    return 0, True
            offset = self._offsets[index]
            if limit is not None and offset >= limit:
                return 0, True
            fh.seek(offset)
            data = fh.read()
        if limit is not None:
            data = data[: limit - offset]
        meta = self._metas[index]
        pos = 0
        count = 0
        n = len(data)
        while pos + _FRAME.size <= n:
            length, crc = _FRAME.unpack_from(data, pos)
            body_at = pos + _FRAME.size
            if body_at + length > n:
                break  # partial record: not yet written through
            payload = data[body_at : body_at + length]
            if zlib.crc32(payload) != crc:
                if body_at + length == n and limit is None:
                    break  # possibly mid-write; re-read next poll
                raise CheckpointError(
                    f"corrupt WAL record in {path.name} at byte "
                    f"{offset + pos} (crc mismatch)"
                )
            self._apply_record(payload, meta)
            count += 1
            pos = body_at + length
        self._offsets[index] = offset + pos
        done = (limit is not None and offset + pos >= limit) or pos == n
        return count, done

    def _apply_record(self, payload: bytes, meta: _SegmentMeta) -> None:
        record = _parse_record(payload)
        if record[0] == "entry":
            _kind, partition, seq, ids, deltas, is_prepared = record
            meta.note(partition, seq)
            self.last_seq = max(self.last_seq, seq)
            if seq <= self.covered_seq:
                return
            if is_prepared:
                self._prepared.setdefault(seq, []).append(
                    (partition, ids, deltas)
                )
            elif seq > self.snapshot_seqs.get(partition, 0):
                self.entries.setdefault(partition, []).append(
                    JournalEntry(seq, ids, deltas)
                )
        elif record[0] == "decision":
            _kind, seq, parts, commit = record
            self.last_seq = max(self.last_seq, seq)
            for p in parts:
                meta.note(p, seq)
            staged = self._prepared.pop(seq, [])
            if commit and seq > self.covered_seq:
                for partition, ids, deltas in staged:
                    if seq > self.snapshot_seqs.get(partition, 0):
                        self.entries.setdefault(partition, []).append(
                            JournalEntry(seq, ids, deltas)
                        )
        else:  # rescale cutover
            _kind, generation, n_parts, seq = record
            meta.max_seq = max(meta.max_seq, seq)
            self.last_seq = max(self.last_seq, seq)
            if generation <= self.generation:
                return
            self.entries.clear()
            self._prepared.clear()
            self.snapshots = {}
            self.snapshot_seqs = {}
            self.generation = generation
            self.n_parts = n_parts
            self.covered_seq = seq
            self.refresh_snapshots()

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
                    "seq": self.last_seq,
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
        (handed to :meth:`RouterWal.resume_at` at promotion)."""
        return [
            self._metas[index]
            for index in sorted(self._metas)
            if self._metas[index].path.exists()
        ]

    def recovery(self) -> WalRecovery:
        """The shadow state, shaped exactly like :meth:`RouterWal.load`.

        Undecided prepared transactions drop, same as cold recovery —
        no replica can have applied them (commits are sent only after
        the decision record is durable, and we never saw one).
        """
        recovery = WalRecovery()
        recovery.snapshots = dict(self.snapshots)
        recovery.snapshot_seqs = dict(self.snapshot_seqs)
        recovery.entries = {
            p: list(entries)
            for p, entries in sorted(self.entries.items())
            if entries
        }
        recovery.last_seq = self.last_seq
        recovery.generation = self.generation
        recovery.n_parts = self.n_parts
        recovery.covered_seq = self.covered_seq
        return recovery

    def describe(self) -> dict[str, Any]:
        return {
            "reader": self.reader_id,
            "segment": self._current or 0,
            "offset": (
                self._offsets.get(self._current, 0)
                if self._current is not None
                else 0
            ),
            "seq": self.last_seq,
            "records_consumed": self.records_consumed,
            "generation": self.generation,
        }
