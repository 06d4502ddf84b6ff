"""Crash-safe outcome journal: an append-only on-disk WAL for outcomes.

Everything the online-learning loop knows — the observed stream that
drift detection and retraining consume — used to live in one in-memory
deque, so a process restart re-armed drift cold and forgot every
outcome.  :class:`OutcomeJournal` makes the stream durable: every
:class:`~repro.serving.service.OutcomeRecord` appended to an
:class:`~repro.serving.service.OutcomeLog` wired with a journal is also
framed, checksummed and written to a segment file, and
:meth:`OutcomeJournal.recover` replays the segments after a crash —
tolerating exactly the damage a kill -9 can inflict.

**On-disk format.**  A journal is a directory of segment files named
``segment-<firstseq:08d>.wal`` (the zero-padded sequence number of the
segment's first record, so lexicographic order is replay order).  Each
segment starts with an 8-byte magic (:data:`SEGMENT_MAGIC`, which
carries the format version) followed by length+CRC framed payloads::

    <u32 payload length> <u32 crc32(payload)> <payload bytes>

(little-endian).  In a ``QPPWAL2`` segment a payload's first byte names
its frame kind and the rest is one compact-JSON object:

* a *plan frame* (``P``, :func:`encode_plan`) holds a plan id, the
  structure signature and the plan serialized through the plan-JSON
  round trip (:meth:`~repro.plans.node.PlanNode.to_dict`), so a replayed
  plan reconstructs bitwise-identical featurization inputs;
* an *outcome frame* (``O``, :func:`encode_record`) holds one record's
  ``seq``, ``predicted_ms``, ``observed_ms``, ``model`` and
  ``timestamp`` plus the id of its plan.

**Per-segment plan tables.**  A plan's JSON is written once per
segment, not once per outcome: the writer emits a plan frame before the
plan's first reference in each segment, and a reference resolves only
against a plan frame earlier in the *same* segment.  Every segment is
therefore self-contained, and pruning or quarantining one never orphans
a reference in another.  Plan ids come from a bounded LRU memo keyed on
the live plan object's identity (the memo holds the plan, so its
``id()`` cannot be reused).  The memo pays off only when the *same*
``PlanNode`` object is observed again — a client resubmitting a plan it
holds.  A plan seen for the first time costs one encode, about what a
``QPPWAL1`` record cost, and its entry keeps only a 64-bit hash of the
plan frame, so a client that builds a fresh plan per request misses on
every append at little extra cost.  The first repeat re-encodes once to
confirm the content against that hash; every later repeat is confirmed
by a cheaper fingerprint, a hash over every node's operator, arity,
actuals and properties with each value (nested ones too) in its exact
type.  Either way a plan mutated in place gets a fresh id and frame
(a 64-bit hash misses an edit with probability about 2**-64).  An entry
keeps its encoded plan frame only once the plan is referenced from a
second segment.  The owning :class:`~repro.serving.service.OutcomeLog`
sets the memo's bound (``plan_memo_size``) to its own ``maxlen``, so
every plan its retention window references stays memoized.

**Previous format.**  ``QPPWAL1`` segments (:data:`SEGMENT_MAGIC_V1`:
one frame per record carrying the full plan) still replay through
:func:`decode_v1_record`.  The journal never appends to them: after
:meth:`OutcomeJournal.recover` the next append always opens a new
segment.

**Write path.**  Appends go through one buffered handle; every append
is flushed to the OS, and ``fsync`` is *batched* — one real fsync per
``fsync_every`` appends (plus on :meth:`sync`/:meth:`close`), bounding
the crash-loss window without paying a disk flush per outcome.  An
``OSError`` out of the write or fsync (disk full, injected fault) is
swallowed into the ``io_errors`` counter and the handle is closed, so
the next append opens a new segment: durability degrades, serving never
dies.  A record that cannot be encoded at all — e.g. a plan nested
deeper than the JSON encoder's recursion limit, or a frame beyond
:data:`MAX_RECORD_BYTES` — is counted in ``encode_errors`` under the
same contract: the append returns ``False`` and the record lives on
only in memory.

**Replay rules** (:meth:`recover`) — never an unhandled exception:

* a short read of the header or payload at the *tail of the final
  segment* is a torn write: the tail is truncated
  (``torn_tail_bytes``) so the bytes on disk end at the last good frame;
* a CRC mismatch with intact framing is a corrupt *frame*: skipped and
  counted (``corrupt_records``), replay continues at the next frame.  A
  lost plan frame also costs the outcome frames of its segment that
  reference it — each unresolved reference counts as a corrupt record —
  but never a record in another segment.  The segment is then rewritten
  to its good frames (the damaged bytes kept beside it as ``*.corrupt``)
  so the next recovery does not count the same damage again;
* a bad magic, an implausible length, or a short read in a non-final
  segment breaks the framing itself: the rest of that segment is
  unwalkable, so the segment is quarantined (renamed to
  ``*.corrupt``, counted in ``corrupt_segments``) and replay continues
  with the next segment.

Replay decodes each plan frame once and hands every record that
references it the same :class:`~repro.plans.node.PlanNode`, so records
that shared one live plan object replay sharing one node (what
:meth:`~repro.serving.lifecycle.LifecycleManager.training_samples`
dedupes on).  Across segments a node is shared only between plan frames
with byte-identical payloads (compared by SHA-256 digest) — same id
*and* same content — so two different plan contents never resolve to
one node.  Recovery
continues plan ids past the highest one on disk, so a plan frame
written after a restart never repeats an earlier frame's bytes and
never merges a new plan object with an old one.

Sequence numbers are assigned by the :class:`OutcomeLog`, not here; the
journal preserves them, and :meth:`prune` drops whole segments once
every record in them is both below the drift snapshot cursor and
outside the in-memory log's retention window.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import re
import struct
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.plans.node import PlanNode

from .resilience import JournalError
from .service import OUTCOME_LOG_SIZE, OutcomeRecord

__all__ = [
    "OutcomeJournal",
    "ReplayResult",
    "decode_plan",
    "decode_record",
    "decode_v1_record",
    "encode_plan",
    "encode_record",
]

PathLike = Union[str, "os.PathLike[str]"]

#: First 8 bytes of every segment this journal writes; the trailing
#: digit is the format version — bump it when the frame layout changes
#: incompatibly.
SEGMENT_MAGIC = b"QPPWAL2\n"
#: Magic of the previous format (one self-contained frame per record);
#: replayed, never appended to.
SEGMENT_MAGIC_V1 = b"QPPWAL1\n"

#: ``<u32 payload length><u32 crc32>`` little-endian frame header.
_FRAME = struct.Struct("<II")

#: Upper bound on one framed payload; a decoded length beyond this is
#: broken framing (a bit-flipped header), not a giant record.
MAX_RECORD_BYTES = 16 << 20

#: Frame-kind bytes that open every ``QPPWAL2`` payload.
PLAN_FRAME = b"P"
OUTCOME_FRAME = b"O"

_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.wal$")

#: What decoding a CRC-valid but malformed payload can raise.
_DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, RecursionError)


def _dumps(kind: bytes, body) -> bytes:
    return kind + json.dumps(body, separators=(",", ":")).encode("utf-8")


def _loads(kind: bytes, data: bytes):
    if data[:1] != kind:
        raise ValueError(f"expected a {kind!r} frame, got {data[:1]!r}")
    return json.loads(data[1:].decode("utf-8"))


def _frame(payload: bytes) -> bytes:
    """Length+CRC framing; a payload replay would reject is refused."""
    if len(payload) > MAX_RECORD_BYTES:
        raise ValueError(f"{len(payload)}-byte payload exceeds MAX_RECORD_BYTES")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def encode_plan(plan_id: int, signature: str, plan: PlanNode) -> bytes:
    """One plan-frame payload (no framing)."""
    return _dumps(
        PLAN_FRAME, {"plan_id": plan_id, "signature": signature, "plan": plan.to_dict()}
    )


def decode_plan(data: bytes) -> tuple[int, str, PlanNode]:
    """Inverse of :func:`encode_plan`: ``(plan_id, signature, plan)``."""
    body = _loads(PLAN_FRAME, data)
    return int(body["plan_id"]), str(body["signature"]), PlanNode.from_dict(body["plan"])


def encode_record(record: OutcomeRecord, plan_id: int) -> bytes:
    """One record's outcome-frame payload (no framing); ``plan_id``
    names the plan frame that carries ``record.plan``."""
    return _dumps(
        OUTCOME_FRAME,
        {
            "seq": record.seq,
            "plan_id": plan_id,
            "predicted_ms": record.predicted_ms,
            "observed_ms": record.observed_ms,
            "model": record.model,
            "timestamp": record.timestamp,
        },
    )


def decode_record(
    data: bytes, plans: Mapping[int, tuple[str, PlanNode]]
) -> OutcomeRecord:
    """Inverse of :func:`encode_record`, resolving the plan reference in
    ``plans`` (plan id -> ``(signature, plan)``).  Raises on malformed
    payloads and ``KeyError`` on an unresolved reference;
    :meth:`OutcomeJournal.recover` catches and counts both."""
    body = _loads(OUTCOME_FRAME, data)
    signature, plan = plans[int(body["plan_id"])]
    return OutcomeRecord(
        seq=int(body["seq"]),
        signature=signature,
        predicted_ms=float(body["predicted_ms"]),
        observed_ms=float(body["observed_ms"]),
        model=str(body["model"]),
        timestamp=float(body["timestamp"]),
        plan=plan,
    )


def decode_v1_record(data: bytes) -> OutcomeRecord:
    """Decode one ``QPPWAL1`` payload: a compact-JSON record with the
    full plan inline (raises on malformed payloads)."""
    payload = json.loads(data.decode("utf-8"))
    return OutcomeRecord(
        seq=int(payload["seq"]),
        signature=str(payload["signature"]),
        predicted_ms=float(payload["predicted_ms"]),
        observed_ms=float(payload["observed_ms"]),
        model=str(payload["model"]),
        timestamp=float(payload["timestamp"]),
        plan=PlanNode.from_dict(payload["plan"]),
    )


def _fingerprint(plan: PlanNode) -> int:
    """A hash of everything a plan frame's bytes depend on.

    Per node in preorder: operator, arity, actuals and properties,
    serialized by :mod:`marshal`, which writes every builtin value,
    nested ones included, with its exact type (``7``, ``7.0`` and
    ``True`` differ).  A plan holding a value marshal refuses (an
    ``IntEnum``, a ``list`` subclass) is fingerprinted by its JSON, the
    frame's own bytes; a plan JSON refuses raises like
    :func:`encode_plan`.  The writer's hashes are Python's keyed 64-bit
    ``hash()``: ``hashlib`` releases the GIL on inputs over 2 KiB, which
    cost a thread switch per append against the serving thread.
    """
    nodes = [
        # ``_value_`` is the enum member's value without the descriptor.
        (node.op._value_, len(node.children), node.actual_rows, node.actual_total_ms, node.props)
        for node in plan.preorder()
    ]
    try:
        data = marshal.dumps(nodes, 2)  # version 2: no refcount-dependent refs
    except ValueError:
        data = _dumps(PLAN_FRAME, plan.to_dict())
    return hash(data)


class _PlanEntry:
    """One memoized plan: its id, signature and plan-frame hash, its
    :func:`_fingerprint` once it is observed again, and its framed plan
    frame once it is referenced from a second segment."""

    __slots__ = ("plan", "signature", "plan_id", "payload_hash", "fingerprint", "frame")

    def __init__(self, plan, signature, plan_id, payload_hash) -> None:
        self.plan = plan  # strong: keeps id(plan) from being reused
        self.signature = signature
        self.plan_id = plan_id
        self.payload_hash = payload_hash
        self.fingerprint: Optional[int] = None
        self.frame: Optional[bytes] = None


@dataclass(frozen=True)
class ReplayResult:
    """What :meth:`OutcomeJournal.recover` found on disk.

    The damage counters are the journal's typed warning surface: a torn
    tail or corrupt segment never raises, it lands here.
    """

    #: Every decodable record, in journal (= sequence) order.
    records: tuple[OutcomeRecord, ...]
    #: Segment files scanned (including quarantined ones).
    segments_scanned: int
    #: Frames whose CRC (or payload decode) failed with intact framing,
    #: plus outcome frames whose plan reference did not resolve.
    corrupt_records: int
    #: Segments quarantined whole (bad magic / broken framing).
    corrupt_segments: int
    #: Bytes truncated off the final segment's torn tail.
    torn_tail_bytes: int

    @property
    def max_seq(self) -> int:
        """Highest replayed sequence number (0 when empty)."""
        return self.records[-1].seq if self.records else 0

    @property
    def clean(self) -> bool:
        return not (self.corrupt_records or self.corrupt_segments or self.torn_tail_bytes)


class OutcomeJournal:
    """Append-only, segment-rotated, checksummed journal of outcomes.

    Thread-safe; meant to be owned by one
    :class:`~repro.serving.service.OutcomeLog` (which appends under its
    own lock, so journal order always equals sequence order).

    Parameters
    ----------
    directory:
        The journal directory (created if missing).
    segment_max_bytes:
        Rotate to a fresh segment once the current one exceeds this.
    fsync_every:
        Batched-flush interval: one real ``fsync`` per this many
        appends.  ``1`` fsyncs every append (maximum durability);
        higher values bound the crash-loss window at ``fsync_every - 1``
        records while amortizing the flush.
    fsync_fn:
        Injection seam for the chaos drills (defaults to ``os.fsync``);
        see :func:`repro.testing.faults.failing_fsync`.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        segment_max_bytes: int = 1 << 20,
        fsync_every: int = 64,
        fsync_fn=None,
    ) -> None:
        if segment_max_bytes < len(SEGMENT_MAGIC) + _FRAME.size + 1:
            raise JournalError("segment_max_bytes is too small to hold one record")
        if fsync_every < 1:
            raise JournalError("fsync_every must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = int(segment_max_bytes)
        self.fsync_every = int(fsync_every)
        self._fsync = fsync_fn if fsync_fn is not None else os.fsync
        self._lock = threading.Lock()
        self._handle = None
        self._path: Optional[Path] = None
        self._size = 0
        self._unsynced = 0
        #: Plan ids whose plan frame the open segment already holds.
        self._segment_plans: set[int] = set()
        #: ``id(plan)`` -> :class:`_PlanEntry`, least recently used first.
        self._plans: "OrderedDict[int, _PlanEntry]" = OrderedDict()
        self._next_plan_id = 0
        #: Bound on the plan memo; the owning ``OutcomeLog`` sets it to
        #: its ``maxlen`` so every plan its window references stays
        #: memoized (and replays as one shared node).
        self.plan_memo_size = OUTCOME_LOG_SIZE
        #: Records successfully framed and written (this process).
        self.appended = 0
        #: OSErrors swallowed on the write path (write or fsync); each
        #: one degrades durability for in-flight records, never serving.
        self.io_errors = 0
        #: Records that could not be encoded (nothing written for them).
        self.encode_errors = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def append(self, record: OutcomeRecord) -> bool:
        """Frame, checksum and write one record; ``True`` on success.

        Writes the record's plan frame first when the open segment does
        not hold it yet.  Never raises on I/O failure: a failed
        write/rotate closes the handle (the next append opens a new
        segment), bumps ``io_errors`` and returns ``False`` — the
        in-memory log still holds the record, only its durability is
        lost.  A record that fails to encode (too deeply nested to
        serialize, or an unserializable property) bumps
        ``encode_errors`` instead and likewise returns ``False``,
        leaving the journal untouched.
        """
        with self._lock:
            try:
                entry, plan_frame = self._plan_entry(record)
                frame = _frame(encode_record(record, entry.plan_id))
                if plan_frame is None and entry.plan_id not in self._segment_plans:
                    plan_frame = self._plan_frame(entry)
                data = frame if plan_frame is None else plan_frame + frame
                rotate = self._handle is None or (
                    self._size + len(data) > self.segment_max_bytes
                    and self._size > len(SEGMENT_MAGIC)
                )
                if rotate and plan_frame is None:
                    data = self._plan_frame(entry) + frame
            except (RecursionError, TypeError, ValueError):
                self.encode_errors += 1
                return False
            try:
                if rotate:
                    self._rotate_locked(record.seq)
                self._handle.write(data)
                self._handle.flush()
                self._segment_plans.add(entry.plan_id)
                self._size += len(data)
                self._unsynced += 1
                if self._unsynced >= self.fsync_every:
                    self._fsync(self._handle.fileno())
                    self._unsynced = 0
            except OSError:
                self.io_errors += 1
                self._close_locked()
                return False
            self.appended += 1
            return True

    def _plan_entry(self, record: OutcomeRecord) -> tuple[_PlanEntry, Optional[bytes]]:
        """The memo entry for ``record.plan``, plus its plan frame when
        the plan is unknown or changed since it was memoized (a new id).

        A plan seen once costs one encode and a hash of it.  Its first
        repeat re-encodes once to confirm the content against that hash
        and takes the fingerprint that confirms every later one.
        """
        plan = record.plan
        entry = self._plans.get(id(plan))
        if entry is not None and entry.signature == record.signature:
            if entry.fingerprint is not None:
                same = entry.fingerprint == _fingerprint(plan)
            else:
                payload = encode_plan(entry.plan_id, entry.signature, plan)
                same = hash(payload) == entry.payload_hash
                if same:
                    entry.fingerprint = _fingerprint(plan)
            if same:
                self._plans.move_to_end(id(plan))
                return entry, None
        plan_id = self._next_plan_id
        payload = encode_plan(plan_id, record.signature, plan)
        plan_frame = _frame(payload)
        self._next_plan_id += 1
        entry = _PlanEntry(plan, record.signature, plan_id, hash(payload))
        self._plans.pop(id(plan), None)
        self._plans[id(plan)] = entry
        while len(self._plans) > self.plan_memo_size:
            self._plans.popitem(last=False)
        return entry, plan_frame

    @staticmethod
    def _plan_frame(entry: _PlanEntry) -> bytes:
        """A memoized plan's frame for a segment that lacks it: encoded
        on the first such reference, kept from then on."""
        if entry.frame is None:
            entry.frame = _frame(encode_plan(entry.plan_id, entry.signature, entry.plan))
        return entry.frame

    def sync(self) -> bool:
        """Force the batched fsync now; ``True`` when durable."""
        with self._lock:
            if self._handle is None:
                return True
            try:
                self._handle.flush()
                self._fsync(self._handle.fileno())
                self._unsynced = 0
            except OSError:
                self.io_errors += 1
                self._close_locked()
                return False
            return True

    def close(self) -> None:
        """Flush, fsync and release the write handle (the next append
        opens a new segment)."""
        self.sync()
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        handle, self._handle = self._handle, None
        self._path = None
        self._size = 0
        self._unsynced = 0
        self._segment_plans.clear()
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _rotate_locked(self, first_seq: int) -> None:
        """Open a fresh segment named after its first record's seq."""
        self._close_locked()
        path = self.directory / f"segment-{first_seq:08d}.wal"
        while path.exists():
            # A quarantine, an earlier run or replayed-total mismatch
            # left a file with this name; never overwrite journal bytes.
            first_seq += 1
            path = self.directory / f"segment-{first_seq:08d}.wal"
        handle = open(path, "ab")
        handle.write(SEGMENT_MAGIC)
        handle.flush()
        self._handle = handle
        self._path = path
        self._size = len(SEGMENT_MAGIC)
        self._unsynced = 0

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def segments(self) -> list[Path]:
        """Live segment files, replay order (quarantined ones excluded)."""
        found = [p for p in self.directory.iterdir() if _SEGMENT_RE.match(p.name)]
        return sorted(found, key=lambda p: p.name)

    def recover(self) -> ReplayResult:
        """Replay every segment; repair the damage; never raise.

        After ``recover`` the final segment's torn tail (if any) has
        been truncated away, segments with corrupt frames rewritten to
        their good frames, and unwalkable segments renamed to
        ``*.corrupt`` so they are never rescanned (and their names can
        never collide with new segments): a second ``recover`` finds no
        damage.  The next :meth:`append` opens a new segment.  Call
        once, before the first :meth:`append`.
        """
        with self._lock:
            self._close_locked()
            records: list[OutcomeRecord] = []
            corrupt_records = 0
            corrupt_segments = 0
            torn_tail_bytes = 0
            #: Plan-frame payload digest -> ``(plan_id, signature, plan)``.
            decoded: dict[bytes, tuple[int, str, PlanNode]] = {}
            segments = self.segments()
            for index, path in enumerate(segments):
                final = index == len(segments) - 1
                try:
                    data = path.read_bytes()
                except OSError:
                    data = b""
                replay = _replay_segment(data, final, decoded)
                if replay is None:
                    self._quarantine(path)
                    corrupt_segments += 1
                    continue
                segment_records, bad, keep, good = replay
                records.extend(segment_records)
                corrupt_records += bad
                if final and keep < len(data):
                    torn_tail_bytes = len(data) - keep
                try:
                    if bad:
                        self._salvage(path, data, good)
                    elif keep < len(data):
                        os.truncate(path, keep)
                except OSError:
                    pass
            # Ids continue past every id on disk: replay shares a node
            # between byte-identical plan frames, so a new plan object
            # must never repeat an old frame's id and content.
            self._next_plan_id = max(
                [self._next_plan_id] + [plan_id + 1 for plan_id, _, _ in decoded.values()]
            )
            return ReplayResult(
                records=tuple(records),
                segments_scanned=len(segments),
                corrupt_records=corrupt_records,
                corrupt_segments=corrupt_segments,
                torn_tail_bytes=torn_tail_bytes,
            )

    def _salvage(self, path: Path, damaged: bytes, good: list[tuple[int, int]]) -> None:
        """Replace a segment by its magic and the ``good`` frame spans,
        keeping the damaged bytes beside it as ``*.corrupt``."""
        with open(self._quarantine_target(path), "wb") as handle:
            handle.write(damaged)
        scratch = path.with_suffix(".salvage")
        with open(scratch, "wb") as handle:
            frames = (damaged[start:end] for start, end in good)
            handle.write(damaged[: len(SEGMENT_MAGIC)] + b"".join(frames))
            handle.flush()
            self._fsync(handle.fileno())
        os.replace(scratch, path)

    def _quarantine_target(self, path: Path) -> Path:
        target = path.with_suffix(".corrupt")
        n = 0
        while target.exists():
            n += 1
            target = path.with_suffix(f".corrupt{n}")
        return target

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, self._quarantine_target(path))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self, min_seq: int) -> list[Path]:
        """Delete whole segments holding only records below ``min_seq``.

        A segment is prunable when the *next* segment's first sequence
        number is ``<= min_seq`` (so every record it holds is strictly
        older); the currently-open segment is never pruned.  Returns the
        deleted paths.
        """
        with self._lock:
            segments = self.segments()
            doomed: list[Path] = []
            for path, nxt in zip(segments, segments[1:]):
                first_next = int(_SEGMENT_RE.match(nxt.name).group(1))
                if first_next <= min_seq and path != self._path:
                    doomed.append(path)
                else:
                    break
            for path in doomed:
                try:
                    path.unlink()
                except OSError:
                    break
            return doomed

    def __enter__(self) -> "OutcomeJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"OutcomeJournal({str(self.directory)!r}, appended={self.appended}, "
            f"io_errors={self.io_errors}, encode_errors={self.encode_errors})"
        )


def _replay_segment(
    data: bytes, final: bool, decoded: dict[bytes, tuple[int, str, PlanNode]]
) -> Optional[tuple[list[OutcomeRecord], int, int, list[tuple[int, int]]]]:
    """Walk one segment's frames.

    Returns ``(records, corrupt_records, keep_bytes, good_spans)`` where
    ``keep_bytes`` is the prefix length that framed cleanly and
    ``good_spans`` the ``(start, end)`` offsets of the frames that
    decoded — or ``None`` when the framing itself is broken mid-segment
    (or the magic is wrong) and the caller must quarantine the file.  In
    the *final* segment a short read is a torn tail, reported via
    ``keep_bytes < len(data)``; in earlier segments it is breakage.
    ``decoded`` caches plan frames by payload digest across segments, so
    byte-identical frames share one node.
    """
    magic = data[: len(SEGMENT_MAGIC)]
    if magic not in (SEGMENT_MAGIC, SEGMENT_MAGIC_V1):
        return None
    v1 = magic == SEGMENT_MAGIC_V1
    plans: dict[int, tuple[str, PlanNode]] = {}
    records: list[OutcomeRecord] = []
    good: list[tuple[int, int]] = []
    corrupt = 0
    pos = len(magic)
    while pos < len(data):
        if len(data) - pos < _FRAME.size:
            break  # torn header
        length, crc = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + length
        if length > MAX_RECORD_BYTES or end > len(data):
            # An implausible length is a damaged header, a short payload
            # a torn write: the frame chain cannot be walked past it.
            break
        payload = data[pos + _FRAME.size : end]
        if zlib.crc32(payload) != crc:
            corrupt += 1  # framing intact: skip just this frame
        else:
            try:
                if v1:
                    records.append(decode_v1_record(payload))
                elif payload[:1] == PLAN_FRAME:
                    digest = hashlib.sha256(payload).digest()
                    plan = decoded.get(digest)
                    if plan is None:
                        plan = decoded[digest] = decode_plan(payload)
                    plans[plan[0]] = plan[1:]
                else:
                    records.append(decode_record(payload, plans))
                good.append((pos, end))
            except _DECODE_ERRORS:
                corrupt += 1
        pos = end
    if pos < len(data) and not final:
        return None
    return records, corrupt, pos, good
