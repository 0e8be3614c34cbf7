"""The VP record codec: one fixed record per VP, read as one dtype.

A VP is the paper's fixed shape (Section 6.1): 60 view digests and one
Bloom bit-array.  It is sent, stored and read as one record,
:data:`RECORD_DTYPE` — a head of exactly what the store indexes on
(trusted flag, minute, trajectory bounding box, VP identifier) and a
body of 60 digest slots and the Bloom bits — and a batch of VPs as a
**frame**: version and record count, then the records.  A VP of
``n < 60`` digests (the test and simulation corpus) fills the first
``n`` slots, says so in ``block_len = n x 72`` and leaves the rest
zero, so each VP has one stored byte form and every record one stride.

The frame is the record format of the segment log
(:mod:`repro.store.segments`) and the payload of the ``upload_vp_batch``
wire message: records are deduplicated, routed and appended without
reading a body.  Trust lives in the head, never in serialized content:
the ingesting path asserts it.  Every reader views a frame as one
:data:`RECORD_DTYPE` array held to one list of body rules
(:func:`_body_rules`); :func:`iter_encoded_meta` walks a frame by its
length fields, the framing check a frame of another length gets.
:class:`Batch` is what the store's one write primitive takes, a frame's
records; :class:`RecordColumns` is what investigation reads, a frame's
records as ``(records, 60)`` columns.  :class:`ViewProfile` objects
become frames here, and only here (:func:`encode_vp_batch`,
:func:`encode_vp_frames`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Container, Iterator, Sequence

import numpy as np

from repro.constants import BLOOM_BYTES, VD_MESSAGE_BYTES, VIDEO_UNIT_SECONDS, VP_ID_BYTES
from repro.core.viewdigest import PACKED_DIGEST_DTYPE, first_defect, packed_block_defect
from repro.core.viewdigest import packed_columns
from repro.core.viewprofile import ViewProfile
from repro.errors import ValidationError, WireFormatError
from repro.util.timeline import minute_of

DUPLICATE_ID_MESSAGE = "a VP with this identifier already exists"

RECORD_ID_MISMATCH = "VP batch record id does not match its body"

VP_BLOB_VERSION = 1

VP_BATCH_VERSION = 1

#: a batch frame opens with its version (1 B) and record count (u32)
_FRAME_HEAD = struct.Struct(">BI")
FRAME_HEADER_BYTES = _FRAME_HEAD.size

#: trusted flag bit in a batch record's flags byte
FLAG_TRUSTED = 0x01

#: fixed leading section of one batch record: flags, minute, bbox
_RECORD_HEAD = struct.Struct(">BI4d")

#: the flags and minute that open :data:`_RECORD_HEAD`
_RECORD_MINUTE = struct.Struct(">BI")

#: the body's own head: blob version, Bloom k, digest block length
_BODY_HEAD = struct.Struct(">BHI")

#: every VP record, as numpy reads it: the head :data:`_RECORD_HEAD`
#: packs, the id and the body length, then the body :func:`encode_vp`
#: writes.  Every record has this one stride, so a frame reads as one
#: array of these — every column a view
RECORD_DTYPE = np.dtype(
    [
        ("flags", "u1"),
        ("minute", ">u4"),
        ("bbox", ">f8", (4,)),
        ("vp_id", "u1", (VP_ID_BYTES,)),
        ("body_len", ">u4"),
        ("version", "u1"),
        ("bloom_k", ">u2"),
        ("block_len", ">u4"),
        ("digests", PACKED_DIGEST_DTYPE, (VIDEO_UNIT_SECONDS,)),
        ("bloom", "u1", (BLOOM_BYTES,)),
    ]
)

#: bytes of one record: the stride of a frame and of the segment log
RECORD_BYTES = RECORD_DTYPE.itemsize

#: bytes of one record before its body: head, vp_id, body length
RECORD_OVERHEAD_BYTES = RECORD_DTYPE.fields["version"][1]

#: bytes of every record's body (:func:`encode_vp`)
FRAME_BODY_BYTES = RECORD_BYTES - RECORD_OVERHEAD_BYTES

#: a body's 60 digest slots
_SLOTS = RECORD_DTYPE["digests"]


def frame_count(frame: bytes | memoryview) -> int:
    """The record count a frame's header declares — before the frame is
    held to that many records."""
    if len(frame) < FRAME_HEADER_BYTES:
        raise WireFormatError("VP batch too short for header")
    return _FRAME_HEAD.unpack_from(frame)[1]


def peek_frame_minute(frame: bytes | memoryview) -> int:
    """Cheap sidecar peek at a batch frame's first-record minute.

    Used by admission control to pick a shard queue *before* the frame
    is validated; a frame too short to carry a record maps to minute 0
    (validation rejects it anyway).
    """
    if len(frame) < FRAME_HEADER_BYTES + _RECORD_MINUTE.size:
        return 0
    return _RECORD_MINUTE.unpack_from(frame, FRAME_HEADER_BYTES)[1]


def encode_vp(vp: ViewProfile) -> bytes:
    """Serialize one VP to its :data:`FRAME_BODY_BYTES` body.

    The digest block is the VP's own (held since it was read from
    bytes, or joined once on first encode), zero slots pad it to 60;
    the Bloom bits are read live, because neighbours are added to a VP
    after it is built — so the body itself is never memoized.
    """
    block = _block(vp)
    head = _BODY_HEAD.pack(VP_BLOB_VERSION, vp.bloom.k, len(block))
    return b"".join((head, block, bytes(_SLOTS.itemsize - len(block)), vp.bloom.to_bytes()))


def _block(vp: ViewProfile) -> bytes:
    """The VP's digest block — if a record can hold its Bloom, of one size."""
    if vp.bloom.m_bits != 8 * BLOOM_BYTES:
        raise WireFormatError(
            f"cannot encode a {vp.bloom.m_bits}-bit Bloom filter; "
            f"a VP record holds {8 * BLOOM_BYTES} bits"
        )
    return vp.digest_block()


def decode_vp(blob: bytes | memoryview, trusted: bool = False) -> ViewProfile:
    """Rebuild a VP from its body (:func:`encode_vp`); trust comes from
    the store.  The body is held to the record rules every reader
    applies; the VP copies out its digests, no digest is unpacked."""
    if len(blob) != FRAME_BODY_BYTES:
        raise WireFormatError(f"VP blob is {len(blob)} bytes, not {FRAME_BODY_BYTES}")
    # a body is the tail of a record: read it behind a blank head
    return _decoded(np.frombuffer(bytes(RECORD_OVERHEAD_BYTES) + blob, RECORD_DTYPE), [trusted])[0]


# -- columnar batch format -------------------------------------------------


def frame_header(count: int) -> bytes:
    """The :data:`FRAME_HEADER_BYTES` that open a frame of ``count`` records."""
    return _FRAME_HEAD.pack(VP_BATCH_VERSION, count)


def encode_vp_batch(vps: Sequence[ViewProfile], trusted: bool = False) -> bytes:
    """Serialize a whole batch of VPs into one contiguous buffer.

    Metadata (trusted flag, minute, bounding box, VP id) rides outside
    the body blobs so consumers can route and index without decoding;
    record order is batch order, which the store treats as insertion
    order.  ``trusted`` marks every record (the caller's objects are
    not touched).
    """
    return _framed(vps, _vp_meta(vps, trusted))


def encode_vp_frames(vps: Sequence[ViewProfile], trusted: bool = False) -> Iterator[bytes]:
    """``vps`` as frames of at most :data:`_META_PASS_VPS` records, in order.

    Every VP is held to the record rules (:func:`_vp_meta`) before the
    first frame is made, so a VP refused anywhere in ``vps`` refuses the
    whole list before a caller writing frame by frame has written one;
    only one frame's bodies are held at a time.
    """
    rows = _vp_meta(vps, trusted)
    for first in range(0, len(vps), _META_PASS_VPS):
        last = first + _META_PASS_VPS
        yield _framed(vps[first:last], rows[first:last])


def _framed(vps: Sequence[ViewProfile], rows: list[tuple]) -> bytes:
    """The frame of ``vps``, whose :func:`_vp_meta` rows are ``rows``."""
    parts = [frame_header(len(vps))]
    for (vp_id, minute, trusted, *box), vp in zip(rows, vps):
        head = _RECORD_HEAD.pack(FLAG_TRUSTED if trusted else 0, minute, *box)
        parts += head, bytes(vp_id), FRAME_BODY_BYTES.to_bytes(4, "big"), encode_vp(vp)
    return b"".join(parts)


def _vp_meta(vps: Sequence[ViewProfile], trusted: bool = False) -> list[tuple]:
    """The ``(vp_id, minute, trusted, x_min, y_min, x_max, y_max)`` row
    of each VP, from one pass over the joined digest columns of each
    :data:`_META_PASS_VPS` VPs.

    Boxes are reduced at each VP's first row of the joined blocks, so
    VPs of any digest count share the pass; minutes are
    :func:`record_minute` of each first digest time.  A VP whose Bloom
    a record cannot hold is refused here, before anything is framed.
    """
    rows = []
    for first in range(0, len(vps), _META_PASS_VPS):
        part = vps[first : first + _META_PASS_VPS]
        blocks = [_block(vp) for vp in part]
        fields = packed_columns(b"".join(blocks))
        starts = np.cumsum([0] + [len(block) for block in blocks[:-1]]) // VD_MESSAGE_BYTES
        lows = np.minimum.reduceat(fields["location"], starts).tolist()
        highs = np.maximum.reduceat(fields["location"], starts).tolist()
        for vp, t0, low, high in zip(part, fields["t"][starts].tolist(), lows, highs):
            rows.append((vp.vp_id, record_minute(t0), int(trusted or vp.trusted), *low, *high))
    return rows


def record_minute(t0: float) -> int:
    """The minute field of a record whose first digest is at ``t0``:
    :func:`minute_of` it, an exact int.  One outside the 4-byte field is
    a :class:`WireFormatError`, before a record is framed or stored."""
    minute = minute_of(t0)
    if minute < 0:
        raise WireFormatError(f"cannot batch-encode negative minute {minute}")
    if minute >> 32:
        raise WireFormatError(
            f"cannot batch-encode a VP starting at t={t0!r}: its minute "
            "does not fit the 4-byte minute field"
        )
    return minute


#: VPs per metadata pass and per :func:`encode_vp_frames` frame: a pass
#: copies their digest blocks side by side, so a write of thousands of
#: objects never holds them all twice
_META_PASS_VPS = 64


def iter_encoded_meta(batch: bytes) -> Iterator[tuple[tuple, int, int]]:
    """Walk a batch buffer by its length fields, yielding metadata only.

    Yields ``(meta, start, end)``: a record's ``(vp_id, minute, trusted,
    x_min, y_min, x_max, y_max)`` and its raw span, each body sought
    past, never sliced.  The framing check of a frame that is not
    ``count`` whole records: version, a record count held byte-exactly
    to the buffer, no trailing bytes.
    """
    count = frame_count(batch)
    version = batch[0]
    if version != VP_BATCH_VERSION:
        raise WireFormatError(f"unsupported VP batch version {version}")
    start = FRAME_HEADER_BYTES
    for _ in range(count):
        body_at = start + RECORD_OVERHEAD_BYTES
        if body_at > len(batch):
            raise WireFormatError("truncated VP batch record")
        flags, minute, *box = _RECORD_HEAD.unpack_from(batch, start)
        vp_id = batch[start + _RECORD_HEAD.size : body_at - 4]
        end = body_at + int.from_bytes(batch[body_at - 4 : body_at], "big")
        if end > len(batch):
            raise WireFormatError("truncated VP batch record")
        yield (vp_id, minute, flags & FLAG_TRUSTED, *box), start, end
        start = end
    if start != len(batch):
        raise WireFormatError(
            f"VP batch of {count} records leaves {len(batch) - start} trailing bytes"
        )


class RecordLengthError(WireFormatError):
    """A frame whose framing holds but whose record ``index`` is not one
    stride: ``meta`` is that record's walked row, ``length`` its bytes."""

    def __init__(self, index: int, meta: tuple, length: int) -> None:
        super().__init__(f"VP batch record is {length} bytes, not {RECORD_BYTES}")
        self.index, self.meta, self.length = index, meta, length


def _frame_records(frame: bytes | memoryview) -> np.ndarray:
    """A frame's records as one :data:`RECORD_DTYPE` array (a view):
    ``count`` records, each declaring the one body length.  Anything
    else is a :class:`WireFormatError` — the framing fault
    :func:`iter_encoded_meta` finds, or a :class:`RecordLengthError`
    for the first record of another length."""
    count = frame_count(frame)
    if frame[0] == VP_BATCH_VERSION and len(frame) == FRAME_HEADER_BYTES + count * RECORD_BYTES:
        records = np.frombuffer(frame, RECORD_DTYPE, count, FRAME_HEADER_BYTES)
        if (records["body_len"] == FRAME_BODY_BYTES).all():
            return records
    walked = [(meta, end - start) for meta, start, end in iter_encoded_meta(frame)]
    index = next(i for i, (_meta, length) in enumerate(walked) if length != RECORD_BYTES)
    raise RecordLengthError(index, *walked[index])


def record_meta(records: np.ndarray) -> list[tuple]:
    """Each record's ``(vp_id, minute, trusted, x_min, y_min, x_max, y_max)``
    row, read off its head columns; only the ids are materialized."""
    trusted = (records["flags"] & FLAG_TRUSTED).tolist()
    return [
        (vp_id, minute, flag, *box)
        for vp_id, minute, flag, box in zip(
            _ids(records), records["minute"].tolist(), trusted, records["bbox"].tolist()
        )
    ]


def _ids(records: np.ndarray) -> list[bytes]:
    """The head ``vp_id`` of each record, as ``bytes`` (they key dicts)."""
    ids = records["vp_id"].tobytes()
    return [ids[at : at + VP_ID_BYTES] for at in range(0, len(ids), VP_ID_BYTES)]


def held_mask(records: np.ndarray) -> np.ndarray:
    """``(records, 60)``: the digest slots each record fills, its first
    ``block_len // 72``."""
    return np.arange(VIDEO_UNIT_SECONDS) < records["block_len"][:, None] // VD_MESSAGE_BYTES


def _body_rules(records: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """What every reader refuses in a body before its digest rules, as
    ``(broken, message)`` pairs in the order they are reported, each
    ``message`` a template of the body's ``version`` and ``block_len``.

    The blob version; whole digests that fit the 60 slots (an empty
    block is the digest rules' to refuse); a Bloom of at least one hash;
    and zero slots past the held digests, so a VP has one stored form.
    """
    block, held = records["block_len"].astype(np.int64), held_mask(records)
    dirty = np.zeros(len(records), dtype=bool)
    short = np.flatnonzero(~held[:, -1])
    if short.size:  # a complete VP has no slot to check
        slots = records["digests"][short].view(np.uint8).reshape(len(short), VIDEO_UNIT_SECONDS, -1)
        dirty[short] = (slots.any(axis=2) & ~held[short]).any(axis=1)
    return [
        (records["version"] != VP_BLOB_VERSION, "unsupported VP blob version {version}"),
        (
            (block % VD_MESSAGE_BYTES != 0) | (block > _SLOTS.itemsize),
            "digest block of {block_len} bytes is not whole digests in 60 slots",
        ),
        (records["bloom_k"] == 0, "bloom hash count must be positive"),
        (dirty, "VP digest slots past its held digests are not zero"),
    ]


def _body_fault(records: np.ndarray) -> tuple[int, WireFormatError] | None:
    """The first body breaking a :func:`_body_rules` rule, and its error."""
    found = first_defect(_body_rules(records))
    if found is None:
        return None
    row, message = found
    version, block_len = int(records["version"][row]), int(records["block_len"][row])
    return row, WireFormatError(message.format(version=version, block_len=block_len))


def _decoded(
    records: np.ndarray, trusted: Sequence[bool], ids: Sequence[bytes] | None = None
) -> list[ViewProfile]:
    """Each record's body as its VP, in order; the first that cannot be
    one raises: a body rule, a digest rule (:meth:`ViewProfile.from_wire`),
    or digests keyed by another id than the head's ``ids``."""
    fault = _body_fault(records)
    held = held_mask(records)
    vps = []
    for row in range(len(records) if fault is None else fault[0]):
        record = records[row]
        vp = ViewProfile.from_wire(
            record["digests"][held[row]].tobytes(),
            record["bloom"].tobytes(),
            int(record["bloom_k"]),
            bool(trusted[row]),
        )
        if ids is not None and vp.vp_id != ids[row]:
            raise WireFormatError(RECORD_ID_MISMATCH)
        vps.append(vp)
    if fault is not None:
        raise fault[1]
    return vps


#: process-local count of record-span byte materializations on the
#: ingest path.  The streaming front-end's zero-copy contract — no
#: ``bytes(...)`` copy of a record body between the socket receive
#: buffer and the segment append — is asserted by regression tests as
#: "this counter did not move".  A copy on that path would report here
#: via :func:`note_span_copies`.
_span_copies = 0


def note_span_copies(n: int) -> None:
    """Record ``n`` record-span materializations (see ``span_copy_count``)."""
    global _span_copies
    _span_copies += n


def span_copy_count() -> int:
    """Process-local running total of ingest-path record-span copies."""
    return _span_copies


def decode_vp_batch(batch: bytes | memoryview) -> list[ViewProfile]:
    """Rebuild the full VP list from a batch buffer (order preserved).

    The trusted flag is restored from the record metadata — inside a
    batch buffer it is ingestion-path state the store wrote, not
    uploader-controlled content; a body keyed by another id than its
    head's is refused, never returned under the head's.
    """
    records = _frame_records(batch)
    return _decoded(records, (records["flags"] & FLAG_TRUSTED).tolist(), _ids(records))


@dataclass(eq=False, slots=True)
class Batch:
    """One store write: a codec frame, built :meth:`from_frame`.

    ``meta`` holds one ``(vp_id, minute, trusted, x_min, y_min, x_max,
    y_max)`` tuple per record, read off the heads; ``records`` is the
    frame's :data:`RECORD_DTYPE` view, and :meth:`record_span` a
    record's bytes in the frame.
    """

    meta: list[tuple]
    records: np.ndarray
    _frame: bytes | memoryview

    @classmethod
    def from_frame(cls, frame: bytes | memoryview) -> "Batch":
        """Wrap a codec frame (``bytes`` or a read-only ``memoryview``).

        The frame must be ``count`` records of the one stride (else
        :class:`WireFormatError`); bodies stay where they are.  Only
        the 16-byte ids are materialized (they key dicts).
        """
        records = _frame_records(frame)
        return cls(record_meta(records), records, frame)

    def __len__(self) -> int:
        return len(self.meta)

    def fresh_indices(self, strict: bool, *taken: Container[bytes]) -> list[int]:
        """Indices of the records a store holding ``taken`` ids may land.

        The store's one duplicate rule: a record is skipped
        when its id is in any ``taken`` container or earlier in this
        batch.  ``strict`` raises ``ValidationError`` on the first
        duplicate instead — before the caller has landed anything, so
        a strict write is all-or-nothing.
        """
        seen: set[bytes] = set()
        fresh: list[int] = []
        for index, record in enumerate(self.meta):
            vp_id = record[0]
            if vp_id in seen or any(vp_id in ids for ids in taken):
                if strict:
                    raise ValidationError(DUPLICATE_ID_MESSAGE)
                continue
            seen.add(vp_id)
            fresh.append(index)
        return fresh

    def record_span(self, index: int) -> memoryview:
        """One record's raw span (head + body) — what a log appends: a
        view of the caller's buffer, never a copy."""
        start = FRAME_HEADER_BYTES + index * RECORD_BYTES
        return memoryview(self._frame)[start : start + RECORD_BYTES]


@dataclass(eq=False)
class RecordColumns:
    """A frame's records laid out once as columns: what investigation reads.

    ``digests`` is the ``(records, 60)`` :data:`PACKED_DIGEST_DTYPE` column of
    the frame, ``held`` marking the filled slots (``t``, ``xy``: float64
    copies); beside it each record's head id, trust, minute and Bloom — all
    views of the frame but ``ids``.
    """

    ids: list[bytes]
    trusted: np.ndarray
    minute: np.ndarray
    digests: np.ndarray
    held: np.ndarray
    bloom_k: np.ndarray
    bloom: np.ndarray

    def __post_init__(self) -> None:
        self.t = self.digests["t"].astype(np.float64)
        self.xy = self.digests["location"].astype(np.float64)  # (records, 60, 2)

    @classmethod
    def from_frame(cls, frame: bytes | memoryview) -> "RecordColumns":
        """View a frame's records as columns, held to the checks decoding
        runs (:func:`_body_rules`, then
        :func:`~repro.core.viewdigest.packed_block_defect` once per held
        count, then the head id): the first failing record raises what
        its decode would."""
        records = _frame_records(frame)
        digests, held = records["digests"], held_mask(records)
        counts = held.sum(axis=1)
        fault = _body_fault(records)  # a body rule outranks its record's digest rules
        faults: dict[int, Exception] = dict([fault] if fault else [])
        for n in np.unique(counts).tolist():
            group = np.flatnonzero(counts == n)
            for broken, message in packed_block_defect(digests[group, :n]):
                for row in group[broken].tolist():
                    faults.setdefault(row, ValidationError(message))
        mismatch = (digests["vp_id"][:, 0] != records["vp_id"]).any(axis=1)
        for row in np.flatnonzero(mismatch).tolist():
            faults.setdefault(row, WireFormatError(RECORD_ID_MISMATCH))
        if faults:
            raise faults[min(faults)]
        return cls(
            _ids(records),
            records["flags"] & FLAG_TRUSTED != 0,
            records["minute"].astype(np.int64),
            digests,
            held,
            records["bloom_k"].astype(np.int64),
            records["bloom"],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray) -> "RecordColumns":
        """The records at ``rows``, in that order."""
        arrays = (getattr(self, field.name)[rows] for field in fields(self)[1:])
        return RecordColumns([self.ids[row] for row in rows.tolist()], *arrays)

    def profile(self, row: int) -> ViewProfile:
        """Record ``row`` as a :class:`ViewProfile`, built on request."""
        block = self.digests[row][self.held[row]].tobytes()
        bits = self.bloom[row].tobytes()
        return ViewProfile.from_wire(block, bits, int(self.bloom_k[row]), bool(self.trusted[row]))
