"""The per-record upload-frame validator, kept as the oracle.

Until ``unpack_vp_batch_frame`` read a frame of complete VPs as one
record array and evaluated every rule as one mask over all records,
this was the authority's front door: a framing walk, then one
``verify_encoded_body`` call per record, each running
``packed_block_defect`` over that record's 60 digests.  It is kept here
verbatim (renamed), rules and messages included, so the columnar
validator is compared against an independent definition; nothing here
calls the code that replaced it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import VD_MESSAGE_BYTES, VIDEO_UNIT_SECONDS
from repro.core.viewdigest import MAX_VP_EXTENT_M, packed_columns
from repro.crypto.bloom import BloomFilter
from repro.errors import ValidationError, WireFormatError
from repro.net.messages import FRAME_BODY_BYTES, MAX_VP_BATCH
from repro.store.codec import (
    RECORD_OVERHEAD_BYTES,
    VP_BLOB_VERSION,
    Batch,
    frame_count,
    iter_encoded_meta,
)
from repro.util.encoding import unpack_uint
from repro.util.timeline import minute_of


def reference_packed_block_defect(fields: np.ndarray) -> str | None:
    """Why these packed digests cannot be one VP's, or ``None``.

    The rules :class:`ViewDigest` and the ``ViewProfile`` constructor
    enforce digest by digest, over the columns of a whole block; the
    caller raises the error class of its own call site.
    """
    if not len(fields):
        return "a view profile needs at least one digest"
    seconds = fields["second_index"]
    if not 1 <= seconds.min() <= seconds.max() <= VIDEO_UNIT_SECONDS:
        return f"second index must be 1..{VIDEO_UNIT_SECONDS}"
    vp_ids = fields["vp_id"]
    if vp_ids.tobytes() != vp_ids[0].tobytes() * len(fields):
        return "all digests in a VP must share one R value"
    if (seconds[1:] <= seconds[:-1]).any():
        return "VP digests must have increasing second indices"
    location = fields["location"]
    (x_min, y_min), (x_max, y_max) = location.min(axis=0).tolist(), location.max(axis=0).tolist()
    width, height = x_max - x_min, y_max - y_min
    if not (np.isfinite(fields["t"]).all() and math.isfinite(width + height)):
        # NaN/Inf would sail through min/max into the spatial index and
        # time arrays — poison, not data (either reaches a box corner,
        # and no finite extent has one)
        return "VP digests carry non-finite time/location"
    if width > MAX_VP_EXTENT_M or height > MAX_VP_EXTENT_M:
        # 10 km in one minute is not a drive; and the viewmap's pair
        # search keys grid cells over all of a minute's positions
        return f"VP positions span more than {MAX_VP_EXTENT_M:.0f} m along one axis"
    return None


def reference_verify_encoded_body(
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
    would mis-prune area queries), and ``bloom_k``
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
    defect = reference_packed_block_defect(fields)
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


def reference_unpack_vp_batch_frame(frame: bytes | memoryview) -> Batch:
    """Validate one uploaded batch frame without decoding a VP body.

    Returns the frame as the :class:`~repro.store.codec.Batch` the
    store writes, once its one metadata walk finds nothing wrong.
    Every rejection — damaged framing, a record count that disagrees
    with the bytes present, an oversized batch, a non-finite or
    inverted bounding box, a body that is not exactly one complete
    60-digest VP, a trusted-flag claim — is a clean
    :class:`ValidationError` before a single record is ingested.  Each body is policed in place on its
    record span by :func:`reference_verify_encoded_body` (blob geometry, digest
    keys matching the sidecar ``vp_id``, increasing seconds, the
    claimed minute): everything a later read would enforce holds by
    byte inspection, so a stored body can always be decoded — without
    this path ever materializing a :class:`ViewProfile`.
    """
    try:
        # the header's record count is authoritative (the walk enforces
        # it byte-exactly), so the batch bound rejects oversized frames
        # before a single record is parsed — MAX_VP_BATCH bounds server work
        count = frame_count(frame)
        if count > MAX_VP_BATCH:
            raise ValidationError(
                f"VP batch frame of {count} records exceeds the "
                f"{MAX_VP_BATCH}-VP limit"
            )
        # the whole walk first: a framing fault outranks any record's
        for meta, start, end in list(iter_encoded_meta(frame)):
            if meta[2]:
                raise ValidationError("anonymous uploads cannot claim trusted status")
            record = memoryview(frame)[start:end]
            if len(record) - RECORD_OVERHEAD_BYTES != FRAME_BODY_BYTES:
                raise ValidationError(
                    f"frame record body is {len(record) - RECORD_OVERHEAD_BYTES} bytes; "
                    f"only complete {VIDEO_UNIT_SECONDS}-digest VPs "
                    f"({FRAME_BODY_BYTES} bytes) can be uploaded"
                )
            if (
                not all(math.isfinite(value) for value in meta[3:7])
                or meta[3] > meta[5]
                or meta[4] > meta[6]
            ):
                raise ValidationError("frame record bounding box is not a finite box")
            reference_verify_encoded_body(
                record,
                RECORD_OVERHEAD_BYTES,
                meta[0],
                meta[1],
                VIDEO_UNIT_SECONDS,
                bbox=meta[3:7],
                bloom_k=BloomFilter.k,
            )
    except WireFormatError as exc:
        raise ValidationError(f"malformed VP batch frame: {exc}") from exc
    return Batch.from_frame(frame)
