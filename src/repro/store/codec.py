"""Storage blob codec for view profiles.

The network wire format (:mod:`repro.net.messages`) only carries
*complete* 60-digest VPs; storage must also round-trip partial VPs (the
test and simulation corpus includes shorter ones), so the store uses its
own self-describing blob:

    version (1B) | bloom k (2B) | len-prefixed packed digests | bloom bits

built from the same :mod:`repro.util.encoding` primitives as the wire
formats.  The trusted flag deliberately lives *outside* the blob (as a
backend column), mirroring the rule that trust is asserted by the
ingestion path, never by serialized content.

On top of the per-VP blob sits the **columnar batch format**
(:func:`encode_vp_batch` / :func:`decode_vp_batch`): one length-prefixed
buffer per batch instead of N independently pickled objects.  Each
record carries, *outside* the body blob, exactly the metadata a storage
backend indexes on — trusted flag, minute, trajectory bounding box and
the VP identifier:

    version (1B) | count (4B)
    record := flags (1B) | minute (4B) | bbox (4 x float64)
              | vp_id (16B) | len-prefixed body blob

so a consumer can route, deduplicate or build SQLite rows without
decoding a single body.  The batch format is the IPC framing of the
process shard workers (:mod:`repro.store.workers`), the row source of
the SQLite backend and the binary payload of the ``upload_vp_batch``
wire message itself: the authority validates and shard-routes from the
metadata alone, slicing per-shard sub-batches out of the incoming frame
and forwarding the record bytes untouched.

:class:`Batch` is what every store backend's one write primitive takes:
it hides whether the records arrived as :class:`ViewProfile` objects or
as such a frame, and hands each backend the form it stores.
"""

from __future__ import annotations

import struct
from typing import Container, Iterable, Iterator, Sequence

from repro.constants import BLOOM_BYTES, VD_MESSAGE_BYTES, VP_ID_BYTES
from repro.core.viewdigest import PACKED_FIELD, packed_block_defect, packed_columns
from repro.core.viewprofile import ViewProfile
from repro.errors import ValidationError, WireFormatError
from repro.util.encoding import (
    pack_uint,
    unpack_pair_f32,
    unpack_prefixed,
    unpack_uint,
)
from repro.util.timeline import minute_of

DUPLICATE_ID_MESSAGE = "a VP with this identifier already exists"

VP_BLOB_VERSION = 1

VP_BATCH_VERSION = 1

#: trusted flag bit in a batch record's flags byte
_FLAG_TRUSTED = 0x01

#: fixed leading section of one batch record: flags, minute, bbox
_RECORD_HEAD = struct.Struct(">BI4d")

#: bytes of one record before its body blob: head + vp_id + length prefix
RECORD_OVERHEAD_BYTES = _RECORD_HEAD.size + VP_ID_BYTES + 4


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
    """Rebuild a VP from its storage blob; trust comes from the backend.

    The VP keeps the blob's digest block as it is (copied out of a
    ``memoryview``) and validates it whole; no digest is unpacked.
    """
    if len(blob) < 3:
        raise WireFormatError("VP blob too short for header")
    version = unpack_uint(blob[0:1])
    if version != VP_BLOB_VERSION:
        raise WireFormatError(f"unsupported VP blob version {version}")
    bloom_k = unpack_uint(blob[1:3])
    digest_block, offset = unpack_prefixed(blob, 3)
    return ViewProfile.from_wire(digest_block, blob[offset:], bloom_k, trusted)


# -- columnar batch format -------------------------------------------------


def encode_vp_batch(vps: Sequence[ViewProfile]) -> bytes:
    """Serialize a whole batch of VPs into one contiguous buffer.

    Metadata (trusted flag, minute, bounding box, VP id) rides outside
    the body blobs so consumers can route and index without decoding;
    record order is batch order, which backends treat as insertion
    order.
    """
    parts = [pack_uint(VP_BATCH_VERSION, 1), pack_uint(len(vps), 4)]
    for vp in vps:
        parts += _record_parts(
            (vp.vp_id, vp.minute, vp.trusted, *vp.bounding_box, encode_vp(vp))
        )
    return b"".join(parts)


def encode_row_batch(rows: Sequence[tuple]) -> bytes:
    """Frame storage rows into a batch buffer.

    Each row is ``(vp_id, minute, trusted, x_min, y_min, x_max, y_max,
    body)`` with the body still encoded — the column order of the SQLite
    backend's ``vps`` table and of :meth:`Batch.rows` — so the
    decode-free read path re-frames stored rows without materializing
    a single :class:`ViewProfile`.  Byte-identical to
    :func:`encode_vp_batch` over the decoded VPs: bodies are stored
    verbatim and the metadata head derives from the same values.
    """
    parts = [pack_uint(VP_BATCH_VERSION, 1), pack_uint(len(rows), 4)]
    for row in rows:
        parts += _record_parts(row)
    return b"".join(parts)


def _record_parts(row: tuple) -> tuple:
    """One storage row as the byte parts of its frame record.

    Prefix and body stay separate parts: a ``memoryview`` body goes into
    the caller's join as it is, so that join is the only copy.
    """
    vp_id, minute, trusted, x_min, y_min, x_max, y_max, body = row
    if minute < 0:
        raise WireFormatError(f"cannot batch-encode negative minute {minute}")
    head = _RECORD_HEAD.pack(
        _FLAG_TRUSTED if trusted else 0, minute, x_min, y_min, x_max, y_max
    )
    return head, bytes(vp_id), pack_uint(len(body), 4), body


def iter_encoded_records(batch: bytes) -> Iterator[tuple[tuple, int, int]]:
    """Walk a batch buffer yielding ``(row, start, end)`` per record.

    ``row`` is a storage row (see :func:`encode_row_batch`);
    ``batch[start:end]`` is the record's complete raw span (metadata +
    body, exactly as framed), so a router can regroup records into new
    batch buffers (:func:`join_encoded_records`) without ever decoding
    a body.  A thin body-slicing wrapper over :func:`iter_encoded_meta`
    — one walker owns the framing validation.
    """
    for meta, start, end in iter_encoded_meta(batch):
        yield (*meta, batch[start + RECORD_OVERHEAD_BYTES : end]), start, end


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
    return (vp_id, minute, flags & _FLAG_TRUSTED, x_min, y_min, x_max, y_max), end


def iter_encoded_meta(batch: bytes) -> Iterator[tuple[tuple, int, int]]:
    """Walk a batch buffer yielding metadata only — bodies never sliced.

    Yields ``(meta, start, end)`` where ``meta`` is a storage row
    (see :func:`encode_row_batch`) *without* its body column and
    ``batch[start:end]`` is the record's raw span.  The walk seeks past
    each body via its length prefix instead of materializing a ~4.5 kB
    slice, so consumers that only route or police metadata (the sharded
    router, trusted-claim re-checks) touch a few dozen bytes per
    record however large the batch is.  Framing validation is the same
    as :func:`iter_encoded_records`.
    """
    if len(batch) < 5:
        raise WireFormatError("VP batch too short for header")
    version = unpack_uint(batch[0:1])
    if version != VP_BATCH_VERSION:
        raise WireFormatError(f"unsupported VP batch version {version}")
    count = unpack_uint(batch[1:5])
    offset = 5
    for _ in range(count):
        start = offset
        meta, offset = unpack_record_meta(batch, start)
        yield meta, start, offset
    if offset != len(batch):
        raise WireFormatError(
            f"VP batch of {count} records leaves {len(batch) - offset} trailing bytes"
        )


def verify_encoded_body(
    batch: bytes,
    body_start: int,
    vp_id: bytes,
    minute: int,
    n_digests: int,
    bbox: tuple[float, float, float, float] | None = None,
    bloom_k: int | None = None,
) -> None:
    """Decode-free integrity check of one record's body inside a frame.

    Confirms by direct byte inspection — no :class:`ViewProfile`
    materialization, no hashing — everything :func:`decode_vp` and the
    VP constructors would enforce structurally at read time, plus the
    consistency of the uploader-written sidecar with the body: blob
    version, exact digest-block geometry, every packed digest keyed by the sidecar's ``vp_id`` (one
    body cannot be registered under a second identifier), strictly
    increasing 1-based second indices, a finite first digest time that
    lands in the sidecar's claimed ``minute``, ``bbox`` (when given)
    exactly the min/max of the digests' packed locations (a forged box
    would mis-index area queries and shard routing), and ``bloom_k``
    (when given) the only hash count the wire form may declare (a
    smaller k would inflate viewmap false linkage).  The zero-decode
    upload path runs this per record, so a frame that passes can never
    poison a minute read.  Raises :class:`WireFormatError` on any
    violation.
    ``body_start`` indexes the body blob inside ``batch`` (bodies are
    checked in place, never sliced out).
    """
    if batch[body_start] != VP_BLOB_VERSION:
        raise WireFormatError(
            f"frame body has unsupported VP blob version {batch[body_start]}"
        )
    k = unpack_uint(batch[body_start + 1 : body_start + 3])
    if k < 1:
        raise WireFormatError("frame body declares a zero-hash bloom filter")
    if bloom_k is not None and k != bloom_k:
        raise WireFormatError(
            f"frame body declares bloom k={k}; uploads must use k={bloom_k}"
        )
    block_bytes = unpack_uint(batch[body_start + 3 : body_start + 7])
    if block_bytes != n_digests * VD_MESSAGE_BYTES:
        raise WireFormatError(
            f"frame body digest block is {block_bytes} bytes, expected "
            f"{n_digests * VD_MESSAGE_BYTES}"
        )
    base = body_start + 7
    # the whole digest block as columns, in place — the per-record hot
    # path of wire validation touches no digest one by one; the
    # memoryview slice is zero-copy, true to "checked in place"
    block = memoryview(batch)[base : base + block_bytes]
    if len(block) != block_bytes:
        raise WireFormatError("frame body digest block is truncated")
    fields = packed_columns(block)
    defect = packed_block_defect(fields)
    if defect:
        raise WireFormatError(f"frame body: {defect}")
    if fields["vp_id"][0].tobytes() != vp_id:
        raise WireFormatError("frame body digest is keyed by a different vp_id")
    if fields["second_index"][-1] > n_digests:
        raise WireFormatError("frame body digest seconds run past the digest count")
    t, location = fields["t"], fields["location"]
    if bbox is not None and tuple(bbox) != (
        *location.min(axis=0).tolist(),
        *location.max(axis=0).tolist(),
    ):
        # exact comparison is sound: wire locations are float32-rounded
        # before packing, so an honest sidecar (built by
        # ViewProfile.bounding_box over the same values) matches bit-for-bit
        raise WireFormatError(
            "frame record bounding box does not match the body's locations"
        )
    t0 = float(t[0])
    if t0 < 0 or minute_of(t0) != minute:
        raise WireFormatError("frame body start time does not match the claimed minute")


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
#: buffer and the worker ``executemany`` — is asserted by regression
#: tests and the streaming benchmark as "this counter did not move".
#: Legitimate copies (regrouping a frame into per-shard sub-batches)
#: report here via :func:`note_span_copies` so the seam stays honest.
_span_copies = 0


def note_span_copies(n: int) -> None:
    """Record ``n`` record-span materializations (see ``span_copy_count``)."""
    global _span_copies
    _span_copies += n


def span_copy_count() -> int:
    """Process-local running total of ingest-path record-span copies."""
    return _span_copies


def join_encoded_records(batch: bytes, spans: Sequence[tuple[int, int]]) -> bytes:
    """Build a new batch buffer from raw record spans of an existing one.

    ``spans`` are ``(start, end)`` pairs as yielded by
    :func:`iter_encoded_records` — the caller has already validated the
    source frame by walking it, so this is pure byte slicing: the
    zero-decode router's tool for carving per-shard sub-batches out of
    one incoming wire frame.  Passing every span of ``batch`` in order
    reproduces it byte-for-byte.  This *is* a copy of every span it
    regroups, and says so (:func:`note_span_copies`): callers that can
    pass a whole frame through untouched should prefer that.
    """
    note_span_copies(len(spans))
    return b"".join(
        [pack_uint(VP_BATCH_VERSION, 1), pack_uint(len(spans), 4)]
        + [batch[start:end] for start, end in spans]
    )


def join_encoded_spans(spans: Sequence[tuple[bytes, int, int]]) -> bytes:
    """Like :func:`join_encoded_records` across *several* source frames.

    ``spans`` are ``(batch, start, end)`` triples — the sharded read
    path's merge tool: each owner shard answers an encoded query with
    its own frame, and the router stitches the records back into one
    buffer in fleet insertion order without decoding a body.
    """
    return b"".join(
        [pack_uint(VP_BATCH_VERSION, 1), pack_uint(len(spans), 4)]
        + [batch[start:end] for batch, start, end in spans]
    )


def decode_vp_batch(batch: bytes) -> list[ViewProfile]:
    """Rebuild the full VP list from a batch buffer (order preserved).

    The trusted flag is restored from the record metadata — inside a
    batch buffer it is ingestion-path state in transit between two
    halves of the same store (supervisor and worker), not uploader
    -controlled content.
    """
    return Batch.from_frame(batch).vps()


class Batch:
    """One store write: records as VP objects or as a codec frame.

    Built :meth:`from_vps` or :meth:`from_frame`; ``meta`` holds one
    ``(vp_id, minute, trusted, x_min, y_min, x_max, y_max)`` tuple per
    record either way, and :meth:`rows`, :meth:`vps` and :meth:`frame`
    derive the other forms on demand — so a backend asks for the form
    it stores and never learns which one arrived.  The trusted bit
    lives in ``meta``: a trusted write forces it without touching the
    caller's objects.
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
        meta = [
            (vp.vp_id, vp.minute, int(trusted or vp.trusted), *vp.bounding_box)
            for vp in vps
        ]
        return cls(meta, vps=vps)

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

        The one duplicate rule of every backend: a record is skipped
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

    def select(self, indices: Sequence[int]) -> "Batch":
        """The sub-batch of ``indices`` (ascending); all of them is ``self``.

        A partial selection of a frame regroups its record spans into
        a new frame — the one counted span copy of the ingest path
        (:func:`join_encoded_records`); a whole frame passes through.
        """
        if len(indices) == len(self.meta):
            return self
        meta = [self.meta[i] for i in indices]
        if self._vps is not None:
            return Batch(meta, vps=[self._vps[i] for i in indices])
        picked = [self._spans[i] for i in indices]
        spans: list[tuple[int, int]] = []
        offset = 5  # records follow the version + count header
        for start, end in picked:
            spans.append((offset, offset + end - start))
            offset += end - start
        return Batch(meta, frame=join_encoded_records(self._frame, picked), spans=spans)

    def rows(self) -> list[tuple]:
        """Storage rows (``meta`` + encoded body) — what SQLite binds.

        Frame bodies are slices of the source buffer: a ``memoryview``
        frame yields ``memoryview`` bodies, never a ``bytes`` copy.
        """
        if self._vps is not None:
            return [(*record, encode_vp(vp)) for record, vp in zip(self.meta, self._vps)]
        frame = self._frame
        return [
            (*record, frame[start + RECORD_OVERHEAD_BYTES : end])
            for record, (start, end) in zip(self.meta, self._spans)
        ]

    def record_spans(self) -> list[bytes | memoryview]:
        """Each record's raw span (head + body) — what a log appends.

        A frame's records are views of the caller's buffer, never
        copies; an object batch is framed one record at a time, so it
        never exists as a whole second frame beside its VPs.
        """
        if self._vps is not None:
            return [
                b"".join(_record_parts((*record, encode_vp(vp))))
                for record, vp in zip(self.meta, self._vps)
            ]
        view = memoryview(self._frame)
        return [view[start:end] for start, end in self._spans]

    def vps(self) -> list[ViewProfile]:
        """The records as objects: the caller's own, or decoded bodies."""
        if self._vps is not None:
            return self._vps
        out: list[ViewProfile] = []
        for vp_id, _minute, trusted, *_bbox, body in self.rows():
            vp = decode_vp(body, trusted=bool(trusted))
            if vp.vp_id != vp_id:
                raise WireFormatError("VP batch record id does not match its body")
            out.append(vp)
        return out

    def frame(self) -> bytes | memoryview:
        """The records as one codec frame — what a worker pipe carries."""
        if self._vps is not None:
            return encode_row_batch(self.rows())
        return self._frame
