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
from repro.crypto.hashing import chain_step, digest16
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
#: driving covers well under 10 km, and the spatial indexes walk every
#: cell of a VP's bounding box
MAX_VP_EXTENT_M = 10_000.0


def packed_columns(block: bytes | memoryview) -> np.ndarray:
    """A block of packed digests as one record per digest (a view, no copy)."""
    return np.frombuffer(block, dtype=PACKED_DIGEST_DTYPE)


def packed_block_defect(fields: np.ndarray) -> str | None:
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
        # the tile and grid indexes enumerate every cell of a VP's
        # bounding box under the store's write lock
        return f"VP positions span more than {MAX_VP_EXTENT_M:.0f} m along one axis"
    return None


def write_packed_rows(
    block: np.ndarray,
    first: int,
    vp_id: bytes,
    times: Sequence[float],
    positions: Sequence[tuple[float, float]],
    file_sizes: Sequence[int],
) -> np.ndarray:
    """Fill ``len(times)`` consecutive seconds of a minute's block, from
    row ``first``, in every column but the chain hash; returns those rows.

    Assigning a position *is* its rounding to float32; one that does not
    fit raises what packing it would, instead of being stored as inf.
    """
    rows = block[first : first + len(times)]
    rows["t"] = times
    try:
        with np.errstate(over="raise"):
            rows["location"] = positions
    except FloatingPointError as exc:
        raise OverflowError("float too large to pack with f format") from exc
    rows["file_size"] = file_sizes
    rows["initial_location"] = block["location"][0]
    rows["second_index"] = np.arange(first + 1, first + len(rows) + 1)
    rows["vp_id"] = np.frombuffer(vp_id, dtype=np.uint8)
    return rows


def packed_chain_heads(
    fields: np.ndarray, head: bytes, chunks: Sequence[bytes]
) -> Iterator[bytes]:
    """Replay the cascaded chain from ``head`` over the (T, L, F) columns
    of packed digests and one content chunk each: ``H_ui``, second by second."""
    metas = zip(fields["t"].tolist(), fields["location"].tolist(), fields["file_size"].tolist())
    for (t, location, file_size), chunk in zip(metas, chunks):
        head = chain_step(t, location, file_size, head, chunk)
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
        sizes = np.cumsum([len(chunk) for chunk in chunks]) + self._file_size
        rows = write_packed_rows(self._block, first, self.vp_id, times, positions, sizes)
        heads = b"".join(packed_chain_heads(rows, self._head, chunks))
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
    if abs(vd.t - now) > time_slack_s:
        return False
    if receiver_position.distance_to(vd.point) > max_range_m:
        return False
    return True
