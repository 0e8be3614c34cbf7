"""Storage blob codec for view profiles.

The network wire format (:mod:`repro.net.messages`) only carries
*complete* 60-digest VPs; storage must also round-trip partial VPs (the
test and simulation corpus includes shorter ones), so the store uses its
own self-describing blob:

    version (1B) | bloom k (2B) | len-prefixed packed digests | bloom bits

built from the same :mod:`repro.util.encoding` primitives as the wire
formats.  The trusted flag deliberately lives *outside* the blob (as a
store column), mirroring the rule that trust is asserted by the
ingestion path, never by serialized content.

On top of the per-VP blob sits the **columnar batch format**
(:func:`encode_vp_batch` / :func:`decode_vp_batch`): one length-prefixed
buffer per batch instead of N independently pickled objects.  Each
record carries, *outside* the body blob, exactly the metadata the store
indexes on — trusted flag, minute, trajectory bounding box and
the VP identifier:

    version (1B) | count (4B)
    record := flags (1B) | minute (4B) | bbox (4 x float64)
              | vp_id (16B) | len-prefixed body blob

so a consumer can deduplicate or append records without decoding a
single body.  The batch format is the record format of the segment log
(:mod:`repro.store.segments`) and the binary payload of the
``upload_vp_batch`` wire message itself: the authority validates it
without decoding a body and appends the record bytes untouched.  No
other module reads the layout (:func:`frame_count`,
:func:`peek_frame_minute`, and :data:`COMPLETE_RECORD_DTYPE`, through
which a frame of complete VPs — a fixed record stride — reads as one
record array, its digests as ``(count, 60)`` columns).

:class:`Batch` is what the store's one write primitive takes, from
:class:`ViewProfile` objects (minutes and boxes in one pass over their
digest columns) or a frame (walked once); :class:`RecordColumns` is what
investigation reads, a frame's records as ``(records, 60)`` columns.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from repro.constants import BLOOM_BYTES, VD_MESSAGE_BYTES, VIDEO_UNIT_SECONDS, VP_ID_BYTES
from repro.core.viewdigest import PACKED_DIGEST_DTYPE, PACKED_FIELD, PackedDigests
from repro.core.viewdigest import packed_block_defect, packed_columns
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.errors import ReproError, ValidationError, WireFormatError
from repro.util.encoding import (
    pack_uint,
    unpack_pair_f32,
    unpack_prefixed,
    unpack_uint,
)
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

#: bytes of one record before its body blob: head + vp_id + length prefix
RECORD_OVERHEAD_BYTES = _RECORD_HEAD.size + VP_ID_BYTES + 4

#: one record carrying a complete 60-digest VP, as numpy reads it: the
#: head :data:`_RECORD_HEAD` packs, the id and the body length, then the
#: blob :func:`encode_vp` writes.  A frame of such records has a fixed
#: stride, so it reads as one array of these — every column a view
COMPLETE_RECORD_DTYPE = np.dtype(
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


def frame_count(frame: bytes | memoryview) -> int:
    """The record count a frame's header declares — before the walk
    (:func:`iter_encoded_meta`) holds it to the bytes present."""
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


def encoded_body_bytes(n_digests: int) -> int:
    """Exact storage-blob size of a VP carrying ``n_digests`` digests.

    Pure layout arithmetic (version + bloom k + length prefix + packed
    digests + bloom bits) — lets a consumer check a record's body is a
    well-formed complete VP from the length alone, without decoding it.
    """
    return 1 + 2 + 4 + n_digests * VD_MESSAGE_BYTES + BLOOM_BYTES


def encode_vp(vp: ViewProfile) -> bytes:
    """Serialize one VP (of any digest count) to its storage blob.

    The digest block is the VP's own (held since it was read from
    bytes, or joined once on first encode); the Bloom bits are read
    live, because neighbours are added to a VP after it is built —
    so the blob itself is never memoized.
    """
    block = vp.digest_block()
    return b"".join(
        (
            pack_uint(VP_BLOB_VERSION, 1),
            pack_uint(vp.bloom.k, 2),
            pack_uint(len(block), 4),
            block,
            vp.bloom.to_bytes(),
        )
    )


def decode_vp(blob: bytes | memoryview, trusted: bool = False) -> ViewProfile:
    """Rebuild a VP from its storage blob; trust comes from the store.

    The VP keeps the blob's digest block as it is (copied out of a
    ``memoryview``) and validates it whole; no digest is unpacked.
    """
    bloom_k, digest_block, bloom_bits = _blob_parts(blob)
    return ViewProfile.from_wire(digest_block, bloom_bits, bloom_k, trusted)


def _blob_parts(blob: bytes | memoryview) -> tuple[int, bytes | memoryview, bytes | memoryview]:
    """A storage blob's Bloom ``k``, digest block and Bloom bits, sliced, not copied."""
    if len(blob) < 3:
        raise WireFormatError("VP blob too short for header")
    version = unpack_uint(blob[0:1])
    if version != VP_BLOB_VERSION:
        raise WireFormatError(f"unsupported VP blob version {version}")
    digest_block, offset = unpack_prefixed(blob, 3)
    return unpack_uint(blob[1:3]), digest_block, blob[offset:]


# -- columnar batch format -------------------------------------------------


def frame_header(count: int) -> bytes:
    """The :data:`FRAME_HEADER_BYTES` that open a frame of ``count`` records."""
    return _FRAME_HEAD.pack(VP_BATCH_VERSION, count)


def encode_vp_batch(vps: Sequence[ViewProfile]) -> bytes:
    """Serialize a whole batch of VPs into one contiguous buffer.

    Metadata (trusted flag, minute, bounding box, VP id) rides outside
    the body blobs so consumers can route and index without decoding;
    record order is batch order, which the store treats as insertion
    order.
    """
    parts = [frame_header(len(vps))]
    for row, vp in zip(_vp_meta(vps), vps):
        parts += _record_parts((*row, encode_vp(vp)))
    return b"".join(parts)


def _vp_meta(vps: Sequence[ViewProfile], trusted: bool = False) -> list[tuple]:
    """The ``(vp_id, minute, trusted, x_min, y_min, x_max, y_max)`` row
    of each VP, from one pass over the joined digest columns of each
    :data:`_META_PASS_VPS` VPs.

    Boxes are reduced at each VP's first row of the joined blocks, so
    VPs of any digest count share the pass; minutes are
    :func:`record_minute` of each first digest time.
    """
    rows = []
    for first in range(0, len(vps), _META_PASS_VPS):
        part = vps[first : first + _META_PASS_VPS]
        blocks = [vp.digest_block() for vp in part]
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


#: VPs per metadata pass: a pass copies their digest blocks side by
#: side, so a store write of thousands of objects never holds them all
#: twice
_META_PASS_VPS = 64


def _record_parts(row: tuple) -> tuple:
    """One storage row as the byte parts of its frame record.

    Prefix and body stay separate parts: a ``memoryview`` body goes into
    the caller's join as it is, so that join is the only copy.
    """
    vp_id, minute, trusted, x_min, y_min, x_max, y_max, body = row
    head = _RECORD_HEAD.pack(
        FLAG_TRUSTED if trusted else 0, minute, x_min, y_min, x_max, y_max
    )
    return head, bytes(vp_id), pack_uint(len(body), 4), body


def unpack_record_meta(batch: bytes, offset: int = 0) -> tuple[tuple, int]:
    """One record's metadata row (no body) and the offset just past it.

    ``batch[offset:]`` begins with a record; the body is sought past
    via its length prefix, never sliced.  The one place the record
    head is parsed: the frame walkers and the segment log's recovery
    scan (whose records stand alone, without a frame header) share it.
    """
    head_end = offset + _RECORD_HEAD.size
    if head_end + VP_ID_BYTES + 4 > len(batch):
        raise WireFormatError("truncated VP batch record")
    flags, minute, x_min, y_min, x_max, y_max = _RECORD_HEAD.unpack(
        batch[offset:head_end]
    )
    vp_id = batch[head_end : head_end + VP_ID_BYTES]
    body_len = unpack_uint(batch[head_end + VP_ID_BYTES : head_end + VP_ID_BYTES + 4])
    end = head_end + VP_ID_BYTES + 4 + body_len
    if end > len(batch):
        raise WireFormatError("truncated VP batch record")
    return (vp_id, minute, flags & FLAG_TRUSTED, x_min, y_min, x_max, y_max), end


def iter_encoded_meta(batch: bytes) -> Iterator[tuple[tuple, int, int]]:
    """Walk a batch buffer yielding metadata only — bodies never sliced.

    Yields ``(meta, start, end)`` where ``meta`` is a record's
    ``(vp_id, minute, trusted, x_min, y_min, x_max, y_max)`` and
    ``batch[start:end]`` is its raw span.  The walk seeks past each
    body via its length prefix instead of materializing a ~4.5 kB
    slice, so a consumer that only polices metadata touches a few
    dozen bytes per record however large the batch is.  The one
    framing validator: version, a record count held byte-exactly to
    the buffer, no trailing bytes.
    """
    count = frame_count(batch)
    version = batch[0]
    if version != VP_BATCH_VERSION:
        raise WireFormatError(f"unsupported VP batch version {version}")
    offset = FRAME_HEADER_BYTES
    for _ in range(count):
        start = offset
        meta, offset = unpack_record_meta(batch, start)
        yield meta, start, offset
    if offset != len(batch):
        raise WireFormatError(
            f"VP batch of {count} records leaves {len(batch) - offset} trailing bytes"
        )


def encoded_body_claims_area(body: bytes, area, offset: int = 0) -> bool:
    """Decode-free exact area membership over one stored body blob.

    True iff any packed digest location lies inside the closed
    rectangle ``area`` — byte-for-byte the same values
    :func:`decode_vp` would hand to ``vp_claims_in_area`` (wire
    locations are float32-rounded before packing), so the encoded
    read path returns exactly the decoded path's record set.
    ``offset`` indexes the body inside a larger buffer (a frame or an
    mmap); the body is inspected in place, never sliced out.
    """
    block_bytes = unpack_uint(body[offset + 3 : offset + 7])
    base = offset + 7
    x_min, x_max = area.x_min, area.x_max
    y_min, y_max = area.y_min, area.y_max
    # digest by digest, first hit returns: on a hot cell nearly every
    # row the SQL box filter lets through claims the area at once
    view = memoryview(body)
    first, last = PACKED_FIELD["location"].start, PACKED_FIELD["location"].stop
    for start in range(base, base + block_bytes, VD_MESSAGE_BYTES):
        x, y = unpack_pair_f32(view[start + first : start + last])
        if x_min <= x <= x_max and y_min <= y <= y_max:
            return True
    return False


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
    uploader-controlled content.
    """
    return [
        decode_record(batch[start:end], vp_id, trusted)
        for (vp_id, _minute, trusted, *_bbox), start, end in iter_encoded_meta(batch)
    ]


def decode_record(record: bytes | memoryview, vp_id: bytes, trusted: int) -> ViewProfile:
    """One record's span (head and body) as its VP, the body held to
    the ``vp_id`` the head carries — a record whose body is keyed by
    another id is refused, never returned under the head's."""
    vp = decode_vp(record[RECORD_OVERHEAD_BYTES:], trusted=bool(trusted))
    if vp.vp_id != vp_id:
        raise WireFormatError(RECORD_ID_MISMATCH)
    return vp


class Batch:
    """One store write: records as VP objects or as a codec frame.

    Built :meth:`from_vps` or :meth:`from_frame`; ``meta`` holds one
    ``(vp_id, minute, trusted, x_min, y_min, x_max, y_max)`` tuple per
    record either way, and :meth:`record_span` frames a record on
    demand — so the store asks for the form it stores and never learns
    which one arrived.  The trusted
    bit lives in ``meta``: a trusted write forces it without touching
    the caller's objects.
    """

    __slots__ = ("meta", "_vps", "_frame", "_spans")

    def __init__(
        self,
        meta: list[tuple],
        vps: list[ViewProfile] | None = None,
        frame: bytes | memoryview | None = None,
        spans: list[tuple[int, int]] | None = None,
    ) -> None:
        self.meta = meta
        self._vps = vps
        self._frame = frame
        self._spans = spans

    @classmethod
    def from_vps(cls, vps: Iterable[ViewProfile], trusted: bool = False) -> "Batch":
        """Wrap the caller's objects; ``trusted`` marks every record."""
        vps = list(vps)
        return cls(_vp_meta(vps, trusted), vps=vps)

    @classmethod
    def from_frame(cls, frame: bytes | memoryview) -> "Batch":
        """Wrap a codec frame (``bytes`` or a read-only ``memoryview``).

        One metadata walk validates the framing; bodies stay where they
        are.  Only the 16-byte ids are materialized (they key dicts).
        """
        meta: list[tuple] = []
        spans: list[tuple[int, int]] = []
        for (vp_id, *rest), start, end in iter_encoded_meta(frame):
            meta.append((bytes(vp_id), *rest))
            spans.append((start, end))
        return cls(meta, frame=frame, spans=spans)

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

    def record_span(self, index: int) -> bytes | memoryview:
        """One record's raw span (head + body) — what a log appends.

        A frame's record is a view of the caller's buffer, never a copy;
        an object batch frames the record on demand, so a caller walking
        the batch in chunks never holds every framed record at once.
        """
        if self._vps is not None:
            return b"".join(_record_parts((*self.meta[index], encode_vp(self._vps[index]))))
        start, end = self._spans[index]
        return memoryview(self._frame)[start:end]


@dataclass(eq=False)
class RecordColumns:
    """A frame's records laid out once as columns: what investigation reads.

    ``digests`` is ``(records, 60)`` :data:`PACKED_DIGEST_DTYPE`, short VPs
    zero-padded and ``held`` marking real rows (``t``, ``xy``: float64 copies);
    beside it each record's head id, trust, minute and Bloom (bytes zero-padded).
    """

    ids: list[bytes]
    trusted: np.ndarray
    minute: np.ndarray
    digests: np.ndarray
    held: np.ndarray
    bloom_k: np.ndarray
    bloom_bits: np.ndarray
    bloom: np.ndarray

    def __post_init__(self) -> None:
        self.t = self.digests["t"].astype(np.float64)
        self.xy = self.digests["location"].astype(np.float64)  # (records, 60, 2)

    @classmethod
    def from_frame(cls, frame: bytes | memoryview) -> "RecordColumns":
        """Lay out a frame's records, held to the checks decoding runs
        (:func:`~repro.core.viewdigest.packed_block_defect` once per digest
        count): the first failing record raises what its decode would."""
        batch = Batch.from_frame(frame)
        faults: dict[int, Exception] = {}  # the first fault of each failing record
        bloom_k, blocks, blooms = [], [], []
        for row in range(len(batch)):
            try:
                k, block, bits = _blob_parts(batch.record_span(row)[RECORD_OVERHEAD_BYTES:])
                PackedDigests(block)  # the geometry checks decoding runs
                BloomFilter.from_bytes(bits, k)
            except ReproError as exc:
                faults[row] = exc
                k, block, bits = 1, b"", b"\0"
            bloom_k.append(k)
            blocks.append(block)
            blooms.append(bytes(bits))
        lengths = np.array([len(block) for block in blocks], dtype=np.intp) // VD_MESSAGE_BYTES
        size = max([VIDEO_UNIT_SECONDS, *lengths.tolist()]) * VD_MESSAGE_BYTES
        padded = [b if len(b) == size else bytes(b).ljust(size, b"\0") for b in blocks]
        digests = packed_columns(b"".join(padded)).reshape(len(blocks), size // VD_MESSAGE_BYTES)
        held = np.arange(digests.shape[-1]) < lengths[:, None]
        for n in np.unique(lengths).tolist():
            group = np.flatnonzero(lengths == n)
            for broken, message in packed_block_defect(digests[group, :n]):
                for row in group[broken].tolist():
                    faults.setdefault(row, ValidationError(message))
        ids = [meta[0] for meta in batch.meta]
        head_ids = np.frombuffer(b"".join(ids), dtype=np.uint8).reshape(-1, VP_ID_BYTES)
        mismatch = held[:, 0] & (digests["vp_id"][:, 0] != head_ids).any(axis=1)
        for row in np.flatnonzero(mismatch).tolist():
            faults.setdefault(row, WireFormatError(RECORD_ID_MISMATCH))
        if faults:
            raise faults[min(faults)]
        sizes = np.array([len(bits) for bits in blooms], dtype=np.int64)
        widest = int(sizes.max(initial=0))
        bloom = b"".join([bits.ljust(widest, b"\0") for bits in blooms])
        bloom = np.frombuffer(bloom, np.uint8).reshape(len(ids), widest)
        heads = np.array([meta[1:3] for meta in batch.meta], dtype=np.int64).reshape(-1, 2)
        bloom_k = np.array(bloom_k, dtype=np.int64)
        return cls(ids, heads[:, 1] > 0, heads[:, 0], digests, held, bloom_k, 8 * sizes, bloom)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray) -> "RecordColumns":
        """The records at ``rows``, in that order."""
        arrays = (getattr(self, field.name)[rows] for field in fields(self)[1:])
        return RecordColumns([self.ids[row] for row in rows.tolist()], *arrays)

    def profile(self, row: int) -> ViewProfile:
        """Record ``row`` as a :class:`ViewProfile`, built on request."""
        block = self.digests[row][self.held[row]].tobytes()
        bits = self.bloom[row, : self.bloom_bits[row] // 8].tobytes()
        return ViewProfile.from_wire(block, bits, int(self.bloom_k[row]), bool(self.trusted[row]))
