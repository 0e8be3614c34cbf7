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

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.constants import BLOOM_BYTES, VD_MESSAGE_BYTES, VIDEO_UNIT_SECONDS, VP_SECRET_BYTES
from repro.crypto.bloom import BloomFilter
from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import (
    PACKED_FIELD,
    PackedDigests,
    ViewDigest,
    packed_block_defect,
    packed_columns,
)
from repro.errors import ValidationError
from repro.geo.geometry import Point
from repro.geo.trajectory import Trajectory
from repro.util.encoding import unpack_float
from repro.util.timeline import minute_of


class ViewProfile:
    """An anonymized per-minute view profile.

    Backed by its packed digest block alone, n x 72 B as recorded, sent
    and stored, whoever built it: a vehicle's generator hands over the
    block it recorded into, :meth:`from_wire` the bytes it read, and a
    list of :class:`ViewDigest` objects is packed on the spot.
    Identifier, minute, times, positions and Bloom keys are read off
    the block; ``digests`` unpacks on demand and keeps nothing.  Only
    ``bloom`` (neighbours are added after construction) and
    ``trusted`` (set by the ingesting authority) may change.
    """

    __hash__ = None  # compared by value, like the dataclass it replaces

    def __init__(
        self, digests: Sequence[ViewDigest], bloom: BloomFilter, trusted: bool = False
    ) -> None:
        if isinstance(digests, PackedDigests):
            block = digests.block
        else:  # the VP owns its block: the caller's list is read once, here
            block = b"".join([vd.pack() for vd in digests])
        defect = packed_block_defect(packed_columns(block))
        if defect:
            raise ValidationError(defect)
        self._block = block
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

        Every structural check runs here, over the whole block, not at
        first attribute access.  A view is copied: a stored VP never
        pins the buffer it arrived in.
        """
        digests = PackedDigests(bytes(block))
        return cls(digests, BloomFilter.from_bytes(bloom_bits, k=bloom_k), trusted)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewProfile):
            return NotImplemented
        return (
            self._block == other._block
            and self.bloom == other.bloom
            and self.trusted == other.trusted
        )

    def __repr__(self) -> str:
        return (
            f"ViewProfile(vp_id={self.vp_id_hex}, minute={self.minute}, "
            f"n_digests={self.n_digests}, trusted={self.trusted})"
        )

    @property
    def digests(self) -> PackedDigests:
        """The VP's view digests (read-only; each unpacked when read)."""
        return PackedDigests(self._block)

    def digest_block(self) -> bytes:
        """The packed digests back to back."""
        return self._block

    @property
    def n_digests(self) -> int:
        """How many digests the VP carries (60 for a complete minute)."""
        return len(self._block) // VD_MESSAGE_BYTES

    @property
    def vp_id(self) -> bytes:
        """R_u — the anonymous identifier this VP is addressed by."""
        return self._block[PACKED_FIELD["vp_id"]]

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
        return unpack_float(self._block[PACKED_FIELD["t"]])

    @property
    def end_time(self) -> float:
        """Time of the last digest."""
        return unpack_float(self._block[-VD_MESSAGE_BYTES:][PACKED_FIELD["t"]])

    @property
    def start_point(self) -> Point:
        """First claimed position."""
        return Point(*self.positions_array[0].tolist())

    @property
    def end_point(self) -> Point:
        """Last claimed position."""
        return Point(*self.positions_array[-1].tolist())

    @property
    def trajectory(self) -> Trajectory:
        """The claimed time/location trajectory of the VP (built per read)."""
        return Trajectory(
            times=self.times_array.tolist(),
            points=[Point(x, y) for x, y in self.positions_array.tolist()],
        )

    @cached_property
    def positions_array(self) -> np.ndarray:
        """(n_digests, 2) array of claimed positions, for bulk geometry."""
        return packed_columns(self._block)["location"].astype(np.float64)

    @cached_property
    def times_array(self) -> np.ndarray:
        """(n_digests,) array of digest times."""
        return packed_columns(self._block)["t"].astype(np.float64)

    @cached_property
    def bounding_box(self) -> tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max) over the claimed positions."""
        pos = self.positions_array
        x_min, y_min = pos.min(axis=0).tolist()
        x_max, y_max = pos.max(axis=0).tolist()
        return (x_min, y_min, x_max, y_max)

    def bloom_keys(self) -> list[bytes]:
        """Wire bytes of this VP's own digests (queried against peers)."""
        block = self._block
        return [
            block[i : i + VD_MESSAGE_BYTES] for i in range(0, len(block), VD_MESSAGE_BYTES)
        ]

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
    digests: Sequence[ViewDigest],
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
    return ViewProfile(digests=digests, bloom=bloom, trusted=trusted)
