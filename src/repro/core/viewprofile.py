"""View profiles: the anonymized 1-minute video summaries (Section 5.1.1).

A VP is 60 view digests plus a Bloom filter over the first/last VDs of
every neighbour heard during the minute.  VPs are self-contained: the
system receives them with no owner identity attached.  Trusted VPs (from
police cars) carry a flag set by the authority ingestion path, never by
the uploader.

Total storage per VP is 60*72 + 256 + 8 = 4584 bytes (Section 6.1),
which :func:`ViewProfile.storage_bytes` reproduces exactly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.constants import BLOOM_BYTES, VD_MESSAGE_BYTES, VIDEO_UNIT_SECONDS, VP_SECRET_BYTES
from repro.crypto.bloom import BloomFilter
from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import PACKED_FIELD, ViewDigest, packed_block_defect, packed_columns
from repro.errors import ValidationError, WireFormatError
from repro.geo.geometry import Point
from repro.geo.trajectory import Trajectory
from repro.util.encoding import unpack_float
from repro.util.timeline import minute_of


class ViewProfile:
    """An anonymized per-minute view profile.

    Backed either by the :class:`ViewDigest` objects it was built from
    (a vehicle, a guard, an attack) or — read from bytes,
    :meth:`from_wire` — by its packed digest block alone, n x 72 B as
    stored.  Identifier, minute, times, positions and Bloom keys are
    read off the packed form either way; the other side (``digests``,
    :meth:`digest_block`) is derived on first use and kept.  Only
    ``bloom`` (neighbours are added after construction) and
    ``trusted`` (set by the ingesting authority) may change.
    """

    __hash__ = None  # compared by value, like the dataclass it replaces

    def __init__(
        self, digests: list[ViewDigest], bloom: BloomFilter, trusted: bool = False
    ) -> None:
        if not digests:
            raise ValidationError("a view profile needs at least one digest")
        ids = {vd.vp_id for vd in digests}
        if len(ids) != 1:
            raise ValidationError("all digests in a VP must share one R value")
        for earlier, later in zip(digests, digests[1:]):
            if later.second_index <= earlier.second_index:
                raise ValidationError("VP digests must have increasing second indices")
        for vd in digests:
            vd.pack()  # a digest that cannot be packed fails here, not at first encode
        self._digests: list[ViewDigest] | None = digests
        self._block: bytes | None = None
        self.bloom = bloom
        self.trusted = trusted

    @classmethod
    def from_wire(
        cls,
        block: bytes | memoryview,
        bloom_bits: bytes | memoryview,
        bloom_k: int = BloomFilter.k,
        trusted: bool = False,
    ) -> "ViewProfile":
        """Build a VP around its packed digest block and Bloom bits.

        Every check the constructor runs digest by digest runs here
        over the whole block, not at first attribute access.  A view is
        copied: a stored VP never pins the buffer it arrived in.
        """
        if len(block) % VD_MESSAGE_BYTES:
            raise WireFormatError(
                f"digest block of {len(block)} bytes is not a multiple "
                f"of {VD_MESSAGE_BYTES}"
            )
        block = bytes(block)
        defect = packed_block_defect(packed_columns(block))
        if defect:
            raise ValidationError(defect)
        vp = cls.__new__(cls)
        vp._digests = None
        vp._block = block
        vp.bloom = BloomFilter.from_bytes(bloom_bits, k=bloom_k)
        vp.trusted = trusted
        return vp

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewProfile):
            return NotImplemented
        return (
            self.bloom_keys() == other.bloom_keys()
            and self.bloom == other.bloom
            and self.trusted == other.trusted
        )

    def __repr__(self) -> str:
        return (
            f"ViewProfile(vp_id={self.vp_id_hex}, minute={self.minute}, "
            f"n_digests={self.n_digests}, trusted={self.trusted})"
        )

    @property
    def digests(self) -> list[ViewDigest]:
        """The VP's view digests (read-only; unpacked on first use).

        Two threads racing the first access each unpack a complete
        list and one of them is kept — no lock, no partial state.
        """
        digests = self._digests
        if digests is None:
            digests = self._digests = [ViewDigest.unpack(key) for key in self.bloom_keys()]
        return digests

    def digest_block(self) -> bytes:
        """The packed digests back to back (an object-built VP joins
        them on first encode and keeps the result)."""
        block = self._block
        if block is None:
            block = self._block = b"".join([vd.pack() for vd in self._digests])
        return block

    @property
    def n_digests(self) -> int:
        """How many digests the VP carries (60 for a complete minute)."""
        if self._digests is not None:
            return len(self._digests)
        return len(self._block) // VD_MESSAGE_BYTES

    def _packed(self, index: int) -> bytes:
        """Wire bytes of one digest (``-1`` is the last)."""
        if self._digests is not None:
            return self._digests[index].pack()
        start = index % self.n_digests * VD_MESSAGE_BYTES
        return self._block[start : start + VD_MESSAGE_BYTES]

    def _columns(self) -> np.ndarray:
        """The digests as packed columns (nothing is kept: an object-built
        VP must not grow before its first encode)."""
        return packed_columns(self._block or b"".join(self.bloom_keys()))

    @property
    def vp_id(self) -> bytes:
        """R_u — the anonymous identifier this VP is addressed by."""
        return self._packed(0)[PACKED_FIELD["vp_id"]]

    @property
    def vp_id_hex(self) -> str:
        """Hex rendering of R_u for boards and logs."""
        return self.vp_id.hex()

    @property
    def minute(self) -> int:
        """The minute index this VP covers (from its first digest time)."""
        return minute_of(self.start_time)

    @property
    def start_time(self) -> float:
        """Time of the first digest."""
        return unpack_float(self._packed(0)[PACKED_FIELD["t"]])

    @property
    def end_time(self) -> float:
        """Time of the last digest."""
        return unpack_float(self._packed(-1)[PACKED_FIELD["t"]])

    @property
    def start_point(self) -> Point:
        """First claimed position."""
        return Point(*self.positions_array[0].tolist())

    @property
    def end_point(self) -> Point:
        """Last claimed position."""
        return Point(*self.positions_array[-1].tolist())

    @cached_property
    def trajectory(self) -> Trajectory:
        """The claimed time/location trajectory of the VP."""
        return Trajectory(
            times=self.times_array.tolist(),
            points=[Point(x, y) for x, y in self.positions_array.tolist()],
        )

    @cached_property
    def positions_array(self) -> np.ndarray:
        """(n_digests, 2) array of claimed positions, for bulk geometry."""
        return self._columns()["location"].astype(np.float64)

    @cached_property
    def times_array(self) -> np.ndarray:
        """(n_digests,) array of digest times."""
        return self._columns()["t"].astype(np.float64)

    @cached_property
    def bounding_box(self) -> tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max) over the claimed positions."""
        pos = self.positions_array
        x_min, y_min = pos.min(axis=0).tolist()
        x_max, y_max = pos.max(axis=0).tolist()
        return (x_min, y_min, x_max, y_max)

    def bloom_keys(self) -> list[bytes]:
        """Wire bytes of this VP's own digests (queried against peers)."""
        if self._digests is not None:
            return [vd.pack() for vd in self._digests]
        block = self._block
        return [
            block[i : i + VD_MESSAGE_BYTES] for i in range(0, len(block), VD_MESSAGE_BYTES)
        ]

    def claims_location_near(self, center: Point, radius_m: float) -> bool:
        """True if any claimed location falls within ``radius_m`` of center."""
        pos = self.positions_array
        dx = pos[:, 0] - center.x
        dy = pos[:, 1] - center.y
        return bool(np.any(dx * dx + dy * dy <= radius_m * radius_m))

    def may_link_to(self, other: "ViewProfile") -> bool:
        """One-way Bloom check: is any of ``other``'s VDs in my bloom?"""
        return any(key in self.bloom for key in other.bloom_keys())

    @staticmethod
    def storage_bytes(include_secret: bool = True) -> int:
        """Per-VP storage footprint from Section 6.1 (4584 bytes)."""
        total = VIDEO_UNIT_SECONDS * VD_MESSAGE_BYTES + BLOOM_BYTES
        if include_secret:
            total += VP_SECRET_BYTES
        return total


def build_view_profile(
    digests: list[ViewDigest],
    neighbors: NeighborTable,
    trusted: bool = False,
) -> ViewProfile:
    """Compile a VP from own digests and the minute's neighbour table.

    Inserts the first and last VD of every neighbour into the Bloom
    bit-array N_u, exactly as Section 5.1.1 prescribes.
    """
    bloom = BloomFilter(m_bits=BLOOM_BYTES * 8)
    for record in neighbors.records():
        for vd in record.digests():
            bloom.add(vd.bloom_key())
    return ViewProfile(digests=list(digests), bloom=bloom, trusted=trusted)
