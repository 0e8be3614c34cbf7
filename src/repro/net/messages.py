"""Wire formats for the ViewMap service protocol.

Control messages use a small JSON header with binary fields riding
behind it as raw attachments: explicit, debuggable, O(1) overhead in the
payload, and independent of Python pickling.

View profiles cross every boundary in one encoding, the **zero-decode
frame codec**: an ``upload_vp_batch`` request and a ``view`` reply each
carry a single columnar batch buffer (:mod:`repro.store.codec`) whose
record metadata (id, minute, trusted flag, bounding box) rides outside
the bodies — 60 packed VDs + the Bloom bit-array per record, matching
Section 6.1 minus the secret that never leaves the vehicle.  A single
VP is a frame of one.
:func:`unpack_vp_batch_frame` is the one validator of an uploaded batch
— framing integrity, batch size, body sizes, no trusted claims, every
body policed in place — and returns the one
:class:`~repro.store.codec.Batch` the store writes, so the authority
never decodes a digest.  Its records have a fixed 4640-byte stride, so
it makes one pass over the frame's columns: each rule is one mask over
every record, and the first record breaking one is reported.

Handlers read request fields through :func:`message_field`: a missing
or wrong-typed field is a :class:`ValidationError`, hence an ``error``
reply, never an exception out of the server.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any

import numpy as np

from repro.constants import VD_MESSAGE_BYTES, VIDEO_UNIT_SECONDS, VP_ID_BYTES
from repro.core.viewdigest import packed_block_defect
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.errors import ValidationError, WireFormatError
from repro.geo.geometry import Rect
from repro.store.codec import (
    COMPLETE_RECORD_DTYPE,
    FLAG_TRUSTED,
    FRAME_HEADER_BYTES,
    RECORD_OVERHEAD_BYTES,
    VP_BATCH_VERSION,
    VP_BLOB_VERSION,
    Batch,
    encode_vp_batch,
    encoded_body_bytes,
    frame_count,
)
from repro.store.serving import QuerySpec

#: upper bound on VPs per ``upload_vp_batch`` message — keeps one request
#: near the size of a typical WiFi upload burst and bounds server work
MAX_VP_BATCH = 256


#: exact body size of a complete 60-digest VP inside a batch frame —
#: the only record shape an upload frame may carry
FRAME_BODY_BYTES = encoded_body_bytes(VIDEO_UNIT_SECONDS)

#: the digest block inside such a body
_FRAME_BLOCK_BYTES = VIDEO_UNIT_SECONDS * VD_MESSAGE_BYTES


def pack_vp_batch_frame(vps: list[ViewProfile]) -> bytes:
    """Serialize a VP batch for one ``upload_vp_batch`` message.

    Complete 60-digest VPs only, at most ``MAX_VP_BATCH`` per message,
    never trusted; the batch travels as a single ``repro.store.codec``
    buffer the authority can validate, route and store without
    decoding a body.
    """
    if len(vps) > MAX_VP_BATCH:
        raise WireFormatError(
            f"VP batch of {len(vps)} exceeds the {MAX_VP_BATCH}-VP limit"
        )
    for vp in vps:
        if vp.n_digests != VIDEO_UNIT_SECONDS:
            raise WireFormatError(
                f"only complete {VIDEO_UNIT_SECONDS}-digest VPs can be uploaded"
            )
        if vp.trusted:
            raise WireFormatError("anonymous uploads cannot claim trusted status")
    return encode_vp_batch(vps)


def unpack_vp_batch_frame(frame: bytes | memoryview) -> Batch:
    """Validate one uploaded batch frame without decoding a VP body.

    Returns the frame as the :class:`~repro.store.codec.Batch` the
    store writes.  Every rejection — damaged framing, a record count
    that disagrees with the bytes present, an oversized batch, a
    non-finite or inverted bounding box, a body that is not exactly one
    complete 60-digest VP, a trusted-flag claim — is a clean
    :class:`ValidationError` before a single record is ingested.

    A frame of complete VPs has a fixed record stride, so it is read as
    one array of records and each rule (:func:`_record_rules`) is one
    mask over all of them: everything a later read would enforce holds
    by byte inspection, so a stored body can always be decoded —
    without this path ever materializing a :class:`ViewProfile`.  The
    first record breaking a rule is reported, with the first rule it
    breaks.  A frame of any other length is walked by
    :func:`~repro.store.codec.iter_encoded_meta`, the one framing
    validator, which rejects it or finds the first record that is not
    a complete VP.
    """
    try:
        # the header's record count is authoritative, so the batch bound
        # rejects oversized frames before a single record is parsed —
        # MAX_VP_BATCH bounds server work
        count = frame_count(frame)
        if count > MAX_VP_BATCH:
            raise ValidationError(
                f"VP batch frame of {count} records exceeds the "
                f"{MAX_VP_BATCH}-VP limit"
            )
        stride = COMPLETE_RECORD_DTYPE.itemsize
        # a wrong version is the walk's to report, before any record rule
        if len(frame) == FRAME_HEADER_BYTES + count * stride and frame[0] == VP_BATCH_VERSION:
            records = np.frombuffer(frame, COMPLETE_RECORD_DTYPE, count, FRAME_HEADER_BYTES)
            if (records["body_len"] == FRAME_BODY_BYTES).all():
                _police(records)
                ids = records["vp_id"].tobytes()
                meta = [  # policed: no record claims trust
                    (ids[i * VP_ID_BYTES : (i + 1) * VP_ID_BYTES], minute, 0, *box)
                    for i, (minute, box) in enumerate(
                        zip(records["minute"].tolist(), records["bbox"].tolist())
                    )
                ]
                spans = [
                    (start, start + stride)
                    for start in range(FRAME_HEADER_BYTES, len(frame), stride)
                ]
                return Batch(meta, frame=frame, spans=spans)
        walked = Batch.from_frame(frame)
        # the walk held the count to the bytes, so some record is not a
        # complete VP; the records before it sit at the fixed stride
        first = next(i for i in range(count) if len(walked.record_span(i)) != stride)
        _police(np.frombuffer(frame, COMPLETE_RECORD_DTYPE, first, FRAME_HEADER_BYTES))
        if walked.meta[first][2]:
            raise ValidationError(_TRUSTED_CLAIM)
        body = len(walked.record_span(first)) - RECORD_OVERHEAD_BYTES
        raise ValidationError(
            f"frame record body is {body} bytes; "
            f"only complete {VIDEO_UNIT_SECONDS}-digest VPs "
            f"({FRAME_BODY_BYTES} bytes) can be uploaded"
        )
    except WireFormatError as exc:
        raise ValidationError(f"{_MALFORMED}{exc}") from exc


_TRUSTED_CLAIM = "anonymous uploads cannot claim trusted status"

#: a frame rejected for its bytes, not for a claim, says so first
_MALFORMED = "malformed VP batch frame: "


def _record_rules(records: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """The upload rules over complete-VP records, in the order they are
    reported: one ``(broken, message)`` pair per rule, ``broken`` a mask
    over the records and ``message`` a :meth:`str.format` template of
    the record's ``version``, ``bloom_k`` and ``block_len``.

    After the sidecar's own rules come the body's, checked in place:
    blob version and geometry, the one Bloom hash count an upload may
    declare (a smaller k would inflate viewmap false linkage),
    :func:`~repro.core.viewdigest.packed_block_defect` over the
    digests, every digest keyed by the sidecar's ``vp_id`` (one body
    cannot be registered under a second identifier), the sidecar box
    exactly the digests' location bounds (a forged box would mis-prune
    area queries) and a first digest time inside the claimed minute.
    """
    box = records["bbox"].astype(np.float64)
    digests = records["digests"]
    location = digests["location"]
    x, y = location[..., 0].astype(np.float64), location[..., 1].astype(np.float64)
    # exact comparison is sound: wire locations are float32-rounded
    # before packing, so an honest sidecar (built over the same values)
    # matches bit-for-bit
    low, high = np.minimum.reduce, np.maximum.reduce
    bounds = np.stack([low(x, -1), low(y, -1), high(x, -1), high(y, -1)], axis=-1)
    start = digests["t"][:, 0].astype(np.float64)
    in_range = (start >= 0) & (start < float(VIDEO_UNIT_SECONDS << 32))
    start_minute = np.where(in_range, start, 0).astype(np.int64) // VIDEO_UNIT_SECONDS
    body = _MALFORMED + "frame body"
    return [
        (records["flags"] & FLAG_TRUSTED != 0, _TRUSTED_CLAIM),
        (
            ~np.isfinite(box).all(axis=1) | (box[:, 0] > box[:, 2]) | (box[:, 1] > box[:, 3]),
            "frame record bounding box is not a finite box",
        ),
        (
            records["version"] != VP_BLOB_VERSION,
            body + " has unsupported VP blob version {version}",
        ),
        (records["bloom_k"] < 1, body + " declares a zero-hash bloom filter"),
        (
            records["bloom_k"] != BloomFilter.k,
            body + f" declares bloom k={{bloom_k}}; uploads must use k={BloomFilter.k}",
        ),
        (
            records["block_len"] != _FRAME_BLOCK_BYTES,
            body + f" digest block is {{block_len}} bytes, expected {_FRAME_BLOCK_BYTES}",
        ),
        *((broken, f"{body}: {message}") for broken, message in packed_block_defect(digests)),
        (
            (digests["vp_id"][:, 0] != records["vp_id"]).any(axis=1),
            body + " digest is keyed by a different vp_id",
        ),
        (
            (box != bounds).any(axis=1),
            _MALFORMED + "frame record bounding box does not match the body's locations",
        ),
        (
            ~in_range | (start_minute != records["minute"]),
            body + " start time does not match the claimed minute",
        ),
    ]


def _police(records: np.ndarray) -> None:
    """Raise the first broken rule of the first record breaking one."""
    rules = _record_rules(records)
    broken = np.array([mask for mask, _message in rules])
    failing = broken.any(axis=0)
    if failing.any():
        index = int(failing.argmax())
        record = records[index]
        raise ValidationError(
            rules[int(broken[:, index].argmax())][1].format(
                version=int(record["version"]),
                bloom_k=int(record["bloom_k"]),
                block_len=int(record["block_len"]),
            )
        )


#: streaming-connection handshake: a vehicle opens with these four bytes
#: before its first record, and the authority echoes them back, so a
#: peer speaking the wrong protocol is rejected before any buffering
STREAM_MAGIC = b"VMS1"

#: stream record kinds — a JSON control envelope or one raw batch frame
STREAM_KIND_MSG = 0x01
STREAM_KIND_FRAME = 0x02

_STREAM_HEAD = struct.Struct(">BI")  # kind (1B) | payload length (4B)

STREAM_HEADER_BYTES = _STREAM_HEAD.size

#: hard per-record payload bound: one full MAX_VP_BATCH frame.  A header
#: declaring more is rejected before a single payload byte is buffered,
#: so a hostile peer cannot make the authority reserve unbounded memory.
MAX_STREAM_PAYLOAD_BYTES = FRAME_HEADER_BYTES + MAX_VP_BATCH * (
    RECORD_OVERHEAD_BYTES + FRAME_BODY_BYTES
)


def pack_stream_record(kind: int, payload: bytes | memoryview) -> bytes:
    """Frame one stream record: ``kind (1B) | length (4B) | payload``."""
    if kind not in (STREAM_KIND_MSG, STREAM_KIND_FRAME):
        raise WireFormatError(f"unknown stream record kind {kind:#x}")
    if len(payload) > MAX_STREAM_PAYLOAD_BYTES:
        raise WireFormatError(
            f"stream record payload of {len(payload)} bytes exceeds the "
            f"{MAX_STREAM_PAYLOAD_BYTES}-byte bound"
        )
    return b"".join((_STREAM_HEAD.pack(kind, len(payload)), payload))


class FrameParser:
    """Incremental parser for one vehicle's streaming connection.

    A small explicit state machine — handshake, record header, record
    payload — fed raw chunks as they arrive off the socket.  Payload
    bytes are assembled into an exact-size per-record buffer allocated
    from the header's declared length; a completed record is emitted as
    a *read-only* :class:`memoryview` of that buffer, which is never
    resized or reused, so downstream consumers (segment appends) may
    hold the span as long as they like.  That buffer is the only place
    payload bytes land between the socket and the store's ``write`` — the
    zero-copy property the streaming tests assert.

    Resource bounds are enforced *before* buffering: a header declaring
    more than ``max_payload_bytes`` (default: one full 256-VP batch
    frame), an unknown record kind, or a bad handshake magic each raise
    a clean :class:`ValidationError` with nothing ingested.  Slow-loris
    style starvation (a peer trickling a partial record forever) is the
    transport's job — :attr:`pending_bytes` exposes how much of an
    unfinished record is buffered so the connection watchdog can apply
    its read deadline.
    """

    def __init__(
        self,
        *,
        max_payload_bytes: int = MAX_STREAM_PAYLOAD_BYTES,
        require_handshake: bool = True,
    ) -> None:
        self._max_payload = max_payload_bytes
        self._await_magic = require_handshake
        self._head = bytearray()
        self._payload: bytearray | None = None
        self._kind = 0
        self._filled = 0
        #: total payload bytes emitted over the connection's lifetime
        self.records_out = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered for the record currently in flight."""
        return len(self._head) + self._filled

    @property
    def mid_record(self) -> bool:
        """True while a record (or the handshake) is partially received."""
        return self._payload is not None or bool(self._head)

    def feed(self, data: bytes | memoryview) -> list[tuple[int, memoryview]]:
        """Consume one chunk; return every record it completes.

        Each returned tuple is ``(kind, payload)`` with ``payload`` a
        read-only view over a freshly allocated, never-mutated buffer.
        """
        chunk = memoryview(data)
        records: list[tuple[int, memoryview]] = []
        offset = 0
        while offset < len(chunk):
            if self._payload is None:
                want = (4 if self._await_magic else STREAM_HEADER_BYTES) - len(self._head)
                take = min(want, len(chunk) - offset)
                self._head += chunk[offset : offset + take]
                offset += take
                if take < want:
                    break
                if self._await_magic:
                    if bytes(self._head) != STREAM_MAGIC:
                        raise ValidationError(
                            "streaming handshake rejected: bad protocol magic"
                        )
                    self._await_magic = False
                    self._head.clear()
                    continue
                kind, length = _STREAM_HEAD.unpack(self._head)
                if kind not in (STREAM_KIND_MSG, STREAM_KIND_FRAME):
                    raise ValidationError(f"unknown stream record kind {kind:#x}")
                if length > self._max_payload:
                    raise ValidationError(
                        f"stream record of {length} bytes exceeds the "
                        f"{self._max_payload}-byte payload bound"
                    )
                self._head.clear()
                if length == 0:
                    records.append((kind, memoryview(b"")))
                    continue
                self._kind = kind
                self._payload = bytearray(length)
                self._filled = 0
            else:
                take = min(len(self._payload) - self._filled, len(chunk) - offset)
                self._payload[self._filled : self._filled + take] = chunk[
                    offset : offset + take
                ]
                self._filled += take
                offset += take
                if self._filled == len(self._payload):
                    done = self._payload
                    self._payload = None
                    self._filled = 0
                    self.records_out += len(done)
                    records.append((self._kind, memoryview(done).toreadonly()))
        return records


def message_field(message: dict[str, Any], name: str, kind: type, item: type | None = None) -> Any:
    """One request field of exactly type ``kind`` (list items: ``item``).

    The only way a handler reads a decoded message: a field that is
    missing or not what the handler is about to use it as is a
    :class:`ValidationError`.  Types are exact — ``True`` is no minute —
    except that ``bytes`` is a decoded attachment, a read-only
    ``memoryview`` of the request: a handler copies what it keeps.
    """
    value = message.get(name)
    if not _is_field(value, kind) or (
        item is not None and not all(_is_field(entry, item) for entry in value)
    ):
        shape = kind.__name__ if item is None else f"{kind.__name__} of {item.__name__}"
        raise ValidationError(f"{message.get('kind')} needs {name!r} as {shape}")
    return value


def _is_field(value: Any, kind: type) -> bool:
    return type(value) is kind or (kind is bytes and type(value) is memoryview)


def pack_query_view(spec: QuerySpec) -> dict[str, Any]:
    """The request fields of one ``query_view`` message.

    The client-side twin of :func:`unpack_query_view`: only the axes
    the wire read path serves travel (minute, optional area box,
    trusted filter) — count and the result shape stay
    authority-internal.
    """
    fields: dict[str, Any] = {"minute": spec.minute, "trusted": spec.trusted_only}
    if spec.area is not None:
        fields["area"] = [
            spec.area.x_min,
            spec.area.y_min,
            spec.area.x_max,
            spec.area.y_max,
        ]
    return fields


def unpack_query_view(message: dict[str, Any]) -> QuerySpec:
    """Parse and validate one ``query_view`` request.

    Every rejection — a missing or non-integer minute, one past the
    codec's 4-byte minute field, a malformed or non-finite area box —
    is a clean :class:`ValidationError` (the area reaches the store's
    bounding-box test, where a NaN corner compares false and would
    silently select nothing).  The spec is always ``encoded``: a view
    is served as stored spans, whatever else the message says.
    """
    minute = message_field(message, "minute", int)
    if minute >= 1 << 32:
        raise ValidationError(f"query_view minute {minute} does not fit the codec")
    rect = None
    box = message.get("area")
    if box is not None:
        if not isinstance(box, (list, tuple)) or len(box) != 4:
            raise ValidationError(
                "query_view area must be [x_min, y_min, x_max, y_max]"
            )
        try:
            corners = [float(value) for value in box]
        except (TypeError, ValueError) as exc:
            raise ValidationError("query_view area corners must be numeric") from exc
        if not all(math.isfinite(value) for value in corners):
            raise ValidationError("query_view area corners must be finite")
        try:
            rect = Rect(*corners)
        except ValueError as exc:  # inverted box: min corner past max
            raise ValidationError(f"query_view area invalid: {exc}") from exc
    return QuerySpec(
        minute=minute,
        area=rect,
        trusted_only=bool(message.get("trusted", False)),
        encoded=True,
    )


_ENVELOPE_HEAD = struct.Struct(">I")  # JSON header length (4B)

#: the header holds ``{"$bytes": n}`` where a binary value was; its n raw
#: bytes ride behind the header, in sorted-key traversal order
_MARKER = "$bytes"


def encode_message(kind: str, **fields: Any) -> bytes:
    """Encode one protocol message.

    ``u32 header length | compact JSON header | attachment bytes``: every
    ``bytes``-like value (top-level, in lists, in dicts) leaves a length
    marker in the header and rides raw behind it, so the envelope costs
    O(1) in the payload.  ``kind`` selects the server handler.
    """
    attachments: list[bytes | bytearray | memoryview] = []
    return b"".join((_envelope_head(kind, fields, attachments), *attachments))


def envelope_head(kind: str, **fields: Any) -> bytes:
    """The bytes :func:`encode_message` puts before the attachments.

    For a sender whose one attachment already sits in a buffer with
    room in front of it: writing this head there gives the message
    without copying the attachment (a ``view`` reply).
    """
    return _envelope_head(kind, fields, [])


def _envelope_head(kind: str, fields: dict[str, Any], attachments: list) -> bytes:
    header = json.dumps(
        _detach({"kind": kind, **fields}, attachments),
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return _ENVELOPE_HEAD.pack(len(header)) + header


def _detach(value: Any, attachments: list) -> Any:
    """Swap binary values for length markers, in sorted-key order."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        attachments.append(value)
        return {_MARKER: memoryview(value).nbytes}
    if isinstance(value, (list, tuple)):
        return [_detach(v, attachments) for v in value]
    if isinstance(value, dict):
        if value.keys() == {_MARKER} or not all(isinstance(k, str) for k in value):
            raise WireFormatError(
                f"message dict needs str keys and cannot be a bare {_MARKER!r} marker"
            )
        return {k: _detach(value[k], attachments) for k in sorted(value)}
    return value


def decode_message(data: bytes | memoryview) -> dict[str, Any]:
    """Decode a protocol message, restoring its binary attachments.

    The untrusted boundary: every malformed shape is a clean
    :class:`WireFormatError` before any attachment is sliced.  An
    attachment comes back as a read-only ``memoryview`` of ``data``,
    never a copy: it keeps the whole message alive, and it hashes like
    ``bytes`` only when ``data`` is hashable — copy what you keep.
    """
    view = memoryview(data).toreadonly()
    if len(view) < _ENVELOPE_HEAD.size:
        raise WireFormatError("protocol message shorter than its length prefix")
    offset = _ENVELOPE_HEAD.size + _ENVELOPE_HEAD.unpack_from(view)[0]
    if offset > len(view):
        raise WireFormatError("protocol message header runs past the buffer")
    slots: list[tuple[Any, Any, int]] = []
    try:
        payload = json.loads(str(view[_ENVELOPE_HEAD.size : offset], "utf-8"))
        if not isinstance(payload, dict) or type(payload.get("kind")) is not str:
            raise WireFormatError("protocol message missing a string kind")
        _attachment_slots(payload, slots)
    except (ValueError, RecursionError) as exc:
        raise WireFormatError("malformed protocol message") from exc
    if offset + sum(n for _, _, n in slots) != len(view):
        raise WireFormatError("protocol message attachments do not tile the buffer")
    for container, key, n in slots:
        container[key] = view[offset : offset + n]
        offset += n
    return payload


def _attachment_slots(value: Any, slots: list[tuple[Any, Any, int]]) -> None:
    """Collect ``(container, key, length)`` per marker, in encode order."""
    for key in sorted(value) if isinstance(value, dict) else range(len(value)):
        item = value[key]
        if isinstance(item, dict) and item.keys() == {_MARKER}:
            if type(item[_MARKER]) is not int or item[_MARKER] < 0:
                raise WireFormatError("attachment marker is not a non-negative int")
            slots.append((value, key, item[_MARKER]))
        elif isinstance(item, (dict, list)):
            _attachment_slots(item, slots)
