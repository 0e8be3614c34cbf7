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
body policed in place — so the authority can route and store the body
bytes without ever decoding a digest.

Handlers read request fields through :func:`message_field`: a missing
or wrong-typed field is a :class:`ValidationError`, hence an ``error``
reply, never an exception out of the server.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any

from repro.constants import VIDEO_UNIT_SECONDS
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.errors import ValidationError, WireFormatError
from repro.geo.geometry import Rect
from repro.store.codec import (
    RECORD_OVERHEAD_BYTES,
    encode_vp_batch,
    encoded_body_bytes,
    iter_encoded_meta,
    verify_encoded_body,
)
from repro.store.serving import QuerySpec

#: upper bound on VPs per ``upload_vp_batch`` message — keeps one request
#: near the size of a typical WiFi upload burst and bounds server work
MAX_VP_BATCH = 256


#: exact body size of a complete 60-digest VP inside a batch frame —
#: the only record shape an upload frame may carry
FRAME_BODY_BYTES = encoded_body_bytes(VIDEO_UNIT_SECONDS)


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


def unpack_vp_batch_frame(frame: bytes) -> tuple[list[tuple], list[tuple[int, int]]]:
    """Validate one uploaded batch frame without decoding a VP body.

    Returns ``(rows, spans)``: per-record metadata rows ``(vp_id,
    minute, trusted, x_min, y_min, x_max, y_max)`` and the raw byte
    span of each record, so the caller can slice per-shard sub-batches
    straight out of ``frame``.  Every rejection — damaged framing, a
    record count that disagrees with the bytes present, an oversized
    batch, a non-finite or inverted bounding box, a body that is not
    exactly one complete 60-digest VP, a trusted-flag claim — is a
    clean :class:`ValidationError` before a single record is ingested.
    Bodies are policed in place by :func:`verify_encoded_body` (blob
    geometry, digest keys matching the sidecar ``vp_id``, increasing
    seconds, the claimed minute): everything a later read would enforce
    holds by byte inspection, so a stored body can always be decoded —
    without this path ever materializing a :class:`ViewProfile`.
    """
    # the header's record count is authoritative (the walk enforces it
    # byte-exactly), so the batch bound rejects oversized frames before
    # a single record is parsed — MAX_VP_BATCH bounds server work
    if len(frame) >= 5:
        count = int.from_bytes(frame[1:5], "big")
        if count > MAX_VP_BATCH:
            raise ValidationError(
                f"VP batch frame of {count} records exceeds the "
                f"{MAX_VP_BATCH}-VP limit"
            )
    rows: list[tuple] = []
    spans: list[tuple[int, int]] = []
    try:
        for meta, start, end in iter_encoded_meta(frame):
            rows.append(meta)
            spans.append((start, end))
        for meta, (start, end) in zip(rows, spans):
            if meta[2]:
                raise ValidationError("anonymous uploads cannot claim trusted status")
            body_start = start + RECORD_OVERHEAD_BYTES
            if end - body_start != FRAME_BODY_BYTES:
                raise ValidationError(
                    f"frame record body is {end - body_start} bytes; only complete "
                    f"{VIDEO_UNIT_SECONDS}-digest VPs ({FRAME_BODY_BYTES} bytes) "
                    "can be uploaded"
                )
            if (
                not all(math.isfinite(value) for value in meta[3:7])
                or meta[3] > meta[5]
                or meta[4] > meta[6]
            ):
                raise ValidationError("frame record bounding box is not a finite box")
            verify_encoded_body(
                frame,
                body_start,
                bytes(meta[0]),
                meta[1],
                VIDEO_UNIT_SECONDS,
                bbox=meta[3:7],
                bloom_k=BloomFilter.k,
            )
    except WireFormatError as exc:
        raise ValidationError(f"malformed VP batch frame: {exc}") from exc
    return rows, spans


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
MAX_STREAM_PAYLOAD_BYTES = 5 + MAX_VP_BATCH * (RECORD_OVERHEAD_BYTES + FRAME_BODY_BYTES)


def pack_stream_record(kind: int, payload: bytes | memoryview) -> bytes:
    """Frame one stream record: ``kind (1B) | length (4B) | payload``."""
    if kind not in (STREAM_KIND_MSG, STREAM_KIND_FRAME):
        raise WireFormatError(f"unknown stream record kind {kind:#x}")
    if len(payload) > MAX_STREAM_PAYLOAD_BYTES:
        raise WireFormatError(
            f"stream record payload of {len(payload)} bytes exceeds the "
            f"{MAX_STREAM_PAYLOAD_BYTES}-byte bound"
        )
    return _STREAM_HEAD.pack(kind, len(payload)) + bytes(payload)


def peek_frame_minute(frame: bytes | memoryview) -> int:
    """Cheap sidecar peek at a batch frame's first-record minute.

    Used by admission control to pick a shard queue *before* the frame
    is validated; a frame too short to carry a record maps to minute 0
    (it will be rejected by :func:`unpack_vp_batch_frame` anyway).
    """
    if len(frame) < 10:
        return 0
    return int.from_bytes(frame[6:10], "big")


class FrameParser:
    """Incremental parser for one vehicle's streaming connection.

    A small explicit state machine — handshake, record header, record
    payload — fed raw chunks as they arrive off the socket.  Payload
    bytes are assembled into an exact-size per-record buffer allocated
    from the header's declared length; a completed record is emitted as
    a *read-only* :class:`memoryview` of that buffer, which is never
    resized or reused, so downstream consumers (the group-commit
    pending queue, worker pipes) may hold the span as long as they
    like.  That buffer is the only place payload bytes land between the
    socket and ``insert_encoded`` — the zero-copy property the
    streaming ingest benchmark asserts.

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
    :class:`ValidationError`.  Types are exact — ``True`` is no minute.
    """
    value = message.get(name)
    if type(value) is not kind or (
        item is not None and not all(type(entry) is item for entry in value)
    ):
        shape = kind.__name__ if item is None else f"{kind.__name__} of {item.__name__}"
        raise ValidationError(f"{message.get('kind')} needs {name!r} as {shape}")
    return value


def pack_query_view(spec: QuerySpec) -> dict[str, Any]:
    """The request fields of one ``query_view`` message.

    The client-side twin of :func:`unpack_query_view`: only the axes
    the wire read path serves travel (minute, optional area box,
    trusted filter) — count, k-nearest and the result shape stay
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
    is a clean :class:`ValidationError` (the area reaches the tile
    index, where a NaN corner would otherwise escape as a non-Repro
    exception).  The spec is always ``encoded``: a view is served as
    stored spans, whatever else the message says.
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
    header = json.dumps(
        _detach({"kind": kind, **fields}, attachments),
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return b"".join((_ENVELOPE_HEAD.pack(len(header)), header, *attachments))


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
    :class:`WireFormatError` before any attachment is sliced.
    """
    view = memoryview(data)
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
        container[key] = bytes(view[offset : offset + n])
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
