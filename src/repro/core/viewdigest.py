"""View digests: the per-second DSRC broadcast unit (Section 5.1.1).

Every second, a recording vehicle broadcasts

    T_ui, L_ui, F_ui, L_u1, R_u, H(T_ui | L_ui | F_ui | H_u(i-1) | u_(i-1..i))

where ``u`` is the video currently being recorded, ``i`` the elapsed
seconds, ``R_u = H(Q_u)`` the VP identifier and ``H`` the cascaded hash.
The wire format is 72 bytes (Section 6.1): the paper enumerates 64 bytes
of fields; we carry the second index ``i`` as the remaining 8 bytes (see
DESIGN.md "known ambiguities").

Locations are rounded to float32 before hashing *and* packing so a
receiver can re-derive hash inputs exactly from the wire bytes.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.constants import (
    HASH_BYTES,
    VD_MESSAGE_BYTES,
    VIDEO_UNIT_SECONDS,
    VP_ID_BYTES,
    VP_SECRET_BYTES,
)
from repro.crypto.hashing import CHAIN_META_DTYPE, chain_step, digest16
from repro.errors import ValidationError, WireFormatError
from repro.geo.geometry import Point
from repro.util.encoding import (
    pack_float,
    pack_pair_f32,
    pack_uint,
    unpack_float,
    unpack_pair_f32,
    unpack_uint,
)
from repro.util.rng import make_rng


#: the 72-byte packed wire format (Section 6.1), field order of
#: :meth:`ViewDigest.pack` — the one description of the layout.  A block
#: of packed digests reads as columns through :func:`packed_columns`
#: (a wire-backed :class:`~repro.core.viewprofile.ViewProfile` and the
#: zero-decode upload validator never unpack a digest to learn its
#: times, positions or second indices)
PACKED_DIGEST_DTYPE = np.dtype(
    [
        ("t", ">f8"),
        ("location", ">f4", (2,)),
        ("file_size", ">u8"),
        ("initial_location", ">f4", (2,)),
        ("second_index", ">u8"),
        ("vp_id", "u1", (VP_ID_BYTES,)),
        ("chain_hash", "u1", (HASH_BYTES,)),
    ]
)

#: byte range of each field inside one packed digest
PACKED_FIELD = {
    name: slice(offset, offset + dtype.itemsize)
    for name, (dtype, offset) in PACKED_DIGEST_DTYPE.fields.items()
}


#: per-axis bound on the positions of one VP, in metres: a minute of
#: driving covers well under 10 km, so a wider VP is not a drive
MAX_VP_EXTENT_M = 10_000.0


def packed_columns(block: bytes | memoryview) -> np.ndarray:
    """A block of packed digests as one record per digest (a view, no copy)."""
    return np.frombuffer(block, dtype=PACKED_DIGEST_DTYPE)


def packed_block_defect(fields: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """Why blocks of packed digests cannot be VPs: one ordered rule table.

    ``fields`` holds blocks along its last axis — one VP's ``(n,)``
    digests, or an upload frame's ``(count, n)`` — and each rule is a
    ``(broken, message)`` pair, ``broken`` a mask of shape
    ``fields.shape[:-1]``.  These are the rules :class:`ViewDigest` and
    the ``ViewProfile`` constructor enforce digest by digest; a block's
    defect is the message of the first rule it breaks, and the caller
    raises the error class of its own call site.  No rule warns,
    whatever the digests hold.
    """
    if not fields.shape[-1]:
        return [(np.ones(fields.shape[:-1], dtype=bool), _EMPTY)]
    # native copies of the columns the rules read: every reduction below
    # then runs over plain memory, not byte-swapped strided rows
    seconds = fields["second_index"].astype(np.int64)
    ids = fields["vp_id"].view(np.uint64)
    x = fields["location"][..., 0].astype(np.float64)
    y = fields["location"][..., 1].astype(np.float64)
    x_min, x_max, y_min, y_max = _min(x, -1), _max(x, -1), _min(y, -1), _max(y, -1)
    # finite iff every time and position is: NaN propagates, an infinity
    # stays one, and no finite sum of these overflows
    reach = _max(np.abs(fields["t"].astype(np.float64)), -1)
    reach = reach + abs(x_min) + abs(x_max) + abs(y_min) + abs(y_max)
    return [
        # read unsigned, a second of 0 wraps past the top as well
        (_max((seconds - 1).view(np.uint64), -1) >= VIDEO_UNIT_SECONDS, _SECOND_RANGE),
        (_any(ids != ids[..., :1, :], (-2, -1)), "all digests in a VP must share one R value"),
        (
            _any(seconds[..., 1:] <= seconds[..., :-1], -1),
            "VP digests must have increasing second indices",
        ),
        # NaN/Inf would sail through min/max into the spatial index and
        # time arrays — poison, not data
        ((reach != reach) | (reach == np.inf), "VP digests carry non-finite time/location"),
        (
            # 10 km in one minute is not a drive; and the viewmap's pair
            # search keys grid cells over all of a minute's positions.
            # ``max > min + extent`` is ``max - min > extent`` for
            # float32 values, without an inf - inf on poisoned rows
            (x_max > x_min + MAX_VP_EXTENT_M) | (y_max > y_min + MAX_VP_EXTENT_M),
            _EXTENT,
        ),
    ]


def first_defect(rules: list[tuple[np.ndarray, str]]) -> tuple[int, str] | None:
    """The first block breaking one of ``rules`` — ``(broken, message)``
    pairs as :func:`packed_block_defect` returns them for a 1-D run of
    blocks — and the message of the first rule it breaks, or ``None``."""
    broken = np.array([mask for mask, _message in rules])
    failing = broken.any(axis=0)
    if not failing.any():
        return None
    index = int(failing.argmax())
    return index, rules[int(broken[:, index].argmax())][1]


_min, _max, _any = np.minimum.reduce, np.maximum.reduce, np.logical_or.reduce
_EMPTY = "a view profile needs at least one digest"
_SECOND_RANGE = f"second index must be 1..{VIDEO_UNIT_SECONDS}"
_EXTENT = f"VP positions span more than {MAX_VP_EXTENT_M:.0f} m along one axis"


def write_packed_rows(
    block: np.ndarray,
    first: int,
    vp_ids: bytes,
    times: Sequence[float],
    positions: Sequence[tuple[float, float]] | np.ndarray,
    file_sizes: Sequence[int],
) -> np.ndarray:
    """Fill ``len(times)`` consecutive seconds of each minute along the
    last axis of ``block`` — one VP's ``(60,)`` or a frame's
    ``(count, 60)`` — from second ``first``, in every column but the
    chain hash; returns those rows.

    ``times`` and ``file_sizes`` are shared by every minute;
    ``positions`` is ``(len(times), 2)`` or one such per minute, and
    ``vp_ids`` one 16-byte id per minute, joined.  Assigning a position
    *is* its rounding to float32; one that does not fit raises what
    packing it would, instead of being stored as inf.
    """
    rows = block[..., first : first + len(times)]
    rows["t"] = times
    try:
        with np.errstate(over="raise"):
            rows["location"] = positions
    except FloatingPointError as exc:
        raise OverflowError("float too large to pack with f format") from exc
    rows["file_size"] = file_sizes
    rows["initial_location"] = block["location"][..., :1, :]
    rows["second_index"] = np.arange(first + 1, first + rows.shape[-1] + 1)
    ids = np.frombuffer(vp_ids, dtype=np.uint8)
    rows["vp_id"] = ids.reshape(*block.shape[:-1], 1, VP_ID_BYTES)
    return rows


def packed_chain_heads(
    fields: np.ndarray, heads: Sequence[bytes], chunks: Sequence[bytes]
) -> Iterator[bytes]:
    """Replay cascaded chains over the (T, L, F) columns of packed
    digests: ``H_ui``, row by row and second by second.

    ``fields`` holds one chain along its last axis — ``(seconds,)``, or
    ``(rows, seconds)`` for a frame — and each row starts from its own
    entry of ``heads`` and absorbs ``chunks``, one per second (every
    row the same sequence; a row stops where either runs out).  Every
    second's ``T | L | F`` is packed up front into one array of
    :data:`~repro.crypto.hashing.CHAIN_META_DTYPE` records — the layout
    :func:`chain_step` packs one second at a time — so the loop only
    hashes.  Lazy: a caller that stops at a mismatch hashes no further.
    """
    fields = fields.reshape(len(heads), fields.shape[-1])
    meta = np.empty(fields.shape, dtype=CHAIN_META_DTYPE)
    meta["t"] = fields["t"]
    meta["x"] = fields["location"][..., 0]
    meta["y"] = fields["location"][..., 1]
    meta["file_size"] = fields["file_size"]
    sha256 = hashlib.sha256
    for head, seconds in zip(heads, meta.view(f"V{meta.itemsize}").tolist()):
        for second, chunk in zip(seconds, chunks):
            h = sha256(second + head)
            h.update(chunk)
            head = h.digest()[:HASH_BYTES]
            yield head


@dataclass(frozen=True)
class ViewDigest:
    """One broadcast view digest (immutable once created)."""

    second_index: int          #: i, 1-based elapsed seconds of video u
    t: float                   #: T_ui — wall-clock time of this digest
    location: tuple[float, float]       #: L_ui — position at second i
    file_size: int             #: F_ui — bytes recorded so far
    initial_location: tuple[float, float]  #: L_u1 — start of the minute
    vp_id: bytes               #: R_u — 16-byte VP identifier
    chain_hash: bytes          #: H_ui — cascaded hash head

    def __post_init__(self) -> None:
        if not 1 <= self.second_index <= VIDEO_UNIT_SECONDS:
            raise ValidationError(
                f"second index must be 1..{VIDEO_UNIT_SECONDS}, got {self.second_index}"
            )
        if len(self.vp_id) != VP_ID_BYTES:
            raise ValidationError(f"vp_id must be {VP_ID_BYTES} bytes")
        if len(self.chain_hash) != HASH_BYTES:
            raise ValidationError(f"chain hash must be {HASH_BYTES} bytes")

    @property
    def point(self) -> Point:
        """Location as a geometry Point."""
        return Point(*self.location)

    def pack(self) -> bytes:
        """Serialize to the 72-byte wire format.

        The digest is immutable, so the packed form is computed once and
        cached — ``pack`` sits on several hot paths at once (Bloom
        membership keys, wire framing, the storage codec), and a city's
        ingest stream re-packs every digest of every VP without this.
        """
        packed = self.__dict__.get("_packed")
        if packed is None:
            packed = (
                pack_float(self.t)
                + pack_pair_f32(*self.location)
                + pack_uint(self.file_size, 8)
                + pack_pair_f32(*self.initial_location)
                + pack_uint(self.second_index, 8)
                + self.vp_id
                + self.chain_hash
            )
            if len(packed) != VD_MESSAGE_BYTES:
                raise WireFormatError(
                    f"packed VD is {len(packed)} bytes, expected {VD_MESSAGE_BYTES}"
                )
            object.__setattr__(self, "_packed", packed)
        return packed

    @classmethod
    def unpack(cls, data: bytes) -> "ViewDigest":
        """Parse a 72-byte wire message back into a ViewDigest."""
        if len(data) != VD_MESSAGE_BYTES:
            raise WireFormatError(
                f"VD message must be {VD_MESSAGE_BYTES} bytes, got {len(data)}"
            )
        field = PACKED_FIELD
        t = unpack_float(data[field["t"]])
        location = unpack_pair_f32(data[field["location"]])
        file_size = unpack_uint(data[field["file_size"]])
        initial_location = unpack_pair_f32(data[field["initial_location"]])
        second_index = unpack_uint(data[field["second_index"]])
        # bytes() so a memoryview chunk (a storage span decoded in
        # place) yields hashable fields; a no-op for bytes input
        vp_id = bytes(data[field["vp_id"]])
        chain_hash = bytes(data[field["chain_hash"]])
        vd = cls(
            second_index=second_index,
            t=t,
            location=location,
            file_size=file_size,
            initial_location=initial_location,
            vp_id=vp_id,
            chain_hash=chain_hash,
        )
        # seed the pack cache with the wire bytes: a digest that arrived
        # over the network (or from a storage blob) re-serializes for
        # free, which is what keeps batch ingest store-bound, not codec-
        # bound
        object.__setattr__(vd, "_packed", bytes(data))
        return vd

    def bloom_key(self) -> bytes:
        """The byte string inserted into / queried from neighbour Blooms."""
        return self.pack()


class PackedDigests(Sequence):
    """A block of packed digests, read as :class:`ViewDigest` objects.

    What a minute of recording is on the vehicle, on the wire and in a
    store: n x 72 bytes back to back.  An item is unpacked when asked
    for and not kept, so reading one never grows the block's owner.
    """

    __slots__ = ("block",)

    def __init__(self, block: bytes) -> None:
        if len(block) % VD_MESSAGE_BYTES:
            raise WireFormatError(
                f"digest block of {len(block)} bytes is not a multiple "
                f"of {VD_MESSAGE_BYTES}"
            )
        self.block = block

    def __len__(self) -> int:
        return len(self.block) // VD_MESSAGE_BYTES

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        start = range(len(self))[index] * VD_MESSAGE_BYTES
        return ViewDigest.unpack(self.block[start : start + VD_MESSAGE_BYTES])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedDigests):
            return self.block == other.block
        return isinstance(other, Sequence) and list(self) == list(other)


def make_secret(rng: random.Random | int | None = None) -> bytes:
    """Draw the 8-byte per-video secret Q_u (Section 6.1)."""
    rng = make_rng(rng)
    return rng.getrandbits(VP_SECRET_BYTES * 8).to_bytes(VP_SECRET_BYTES, "big")


def vp_id_from_secret(secret: bytes) -> bytes:
    """Derive the public VP identifier R_u = H(Q_u)."""
    return digest16(secret)


class VDGenerator:
    """Records one 1-minute video straight into its packed digest block.

    Seeded with ``R_u`` (``H_u0 = R_u``), it absorbs one content chunk per
    second — :meth:`tick` as the second happens, :meth:`record` for all
    the seconds a caller already knows — and fills one 72-byte row each.
    The cascaded chain makes each second O(chunk size) — the property
    benchmarked in Fig. 8.
    """

    def __init__(self, secret: bytes) -> None:
        if len(secret) != VP_SECRET_BYTES:
            raise ValidationError(f"secret must be {VP_SECRET_BYTES} bytes")
        self.secret = secret
        self.vp_id = vp_id_from_secret(secret)
        self._block = np.zeros(VIDEO_UNIT_SECONDS, dtype=PACKED_DIGEST_DTYPE)
        self._head = self.vp_id
        self._file_size = 0
        #: how many seconds of video have been absorbed
        self.seconds_recorded = 0

    @property
    def digests(self) -> PackedDigests:
        """The digests emitted so far (a snapshot of the block)."""
        return PackedDigests(self._block[: self.seconds_recorded].tobytes())

    def _claim(self, seconds: int) -> int:
        """The next free row, once ``seconds`` more are known to fit."""
        first = self.seconds_recorded
        if first + seconds > VIDEO_UNIT_SECONDS:
            raise ValidationError("video already complete: 60 digests emitted")
        return first

    def tick(self, t: float, location: Point | tuple[float, float], chunk: bytes) -> ViewDigest:
        """Absorb one second of recording and emit its view digest."""
        row = self._claim(1)
        loc = location.to_tuple() if isinstance(location, Point) else location
        loc = unpack_pair_f32(pack_pair_f32(*loc))  # the wire precision, before hashing
        initial = tuple(self._block["location"][0].tolist()) if row else loc
        file_size = self._file_size + len(chunk)
        head = chain_step(t, loc, file_size, self._head, chunk)
        self._block[row] = (
            t,
            loc,
            file_size,
            initial,
            row + 1,
            np.frombuffer(self.vp_id, dtype=np.uint8),
            np.frombuffer(head, dtype=np.uint8),
        )
        self._head, self._file_size, self.seconds_recorded = head, file_size, row + 1
        return ViewDigest(
            second_index=row + 1,
            t=t,
            location=loc,
            file_size=file_size,
            initial_location=initial,
            vp_id=self.vp_id,
            chain_hash=head,
        )

    def record(
        self,
        times: Sequence[float],
        positions: Sequence[tuple[float, float]],
        chunks: Sequence[bytes],
    ) -> None:
        """Absorb the next ``len(chunks)`` seconds in one pass.

        The same rows :meth:`tick` would write one by one: the metadata
        goes in as columns, then one loop extends the chain over the
        chunks.
        """
        if not len(times) == len(positions) == len(chunks):
            raise ValidationError("record needs one time and one position per chunk")
        first = self._claim(len(chunks))
        if not chunks:
            return
        lengths = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks))
        sizes = lengths.cumsum() + self._file_size
        rows = write_packed_rows(self._block, first, self.vp_id, times, positions, sizes)
        heads = b"".join(packed_chain_heads(rows, [self._head], chunks))
        rows["chain_hash"] = np.frombuffer(heads, dtype=np.uint8).reshape(-1, HASH_BYTES)
        self._head = heads[-HASH_BYTES:]
        self._file_size = int(sizes[-1])
        self.seconds_recorded = first + len(rows)

    @property
    def complete(self) -> bool:
        """True when a full minute (60 digests) has been emitted."""
        return self.seconds_recorded == VIDEO_UNIT_SECONDS


def validate_incoming_vd(
    vd: ViewDigest,
    now: float,
    receiver_position: Point,
    max_range_m: float,
    time_slack_s: float = 1.0,
) -> bool:
    """Receiver-side acceptance check from Section 5.1.1.

    ``T_xj`` must fall within the current 1-second interval and ``L_xj``
    inside a DSRC radius of the receiver.  Returns False rather than
    raising: rejected digests are simply ignored on the road.
    """
    return digest_in_reach(vd.t, *vd.location, now, receiver_position, max_range_m, time_slack_s)


def digest_in_reach(
    t: float,
    x: float,
    y: float,
    now: float,
    receiver_position: Point,
    max_range_m: float,
    time_slack_s: float = 1.0,
) -> bool:
    """:func:`validate_incoming_vd` over a digest's time ``t`` and
    location ``(x, y)`` alone, for a caller reading packed columns."""
    if abs(t - now) > time_slack_s:
        return False
    # Point.distance_to's own expression, without building a Point
    return not math.hypot(receiver_position.x - x, receiver_position.y - y) > max_range_m
