"""Bloom filter used to summarize neighbour view digests inside a VP.

Section 6.3.2: each VP carries a 2048-bit (256-byte) Bloom filter ``N_u``
holding the first and last VD received from each neighbour.  Viewmap
construction queries these filters in *both* directions (two-way linkage),
so the false-linkage probability is

    p = (1 - [1 - 1/m]^(2nk))^(2k)

for ``m`` bits, ``n`` neighbour VPs (two VDs each) and ``k`` hash
functions.  Fig. 14 plots this; the paper picks m=2048 for a 0.1% rate at
300 neighbours.

Viewmap construction asks in batches — :func:`key_positions` for many
items, :func:`unpacked_bits` for many filters — and keeps nothing
between builds.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.constants import BLOOM_BITS
from repro.errors import ValidationError


def optimal_hash_count(m_bits: int, n_items: int) -> int:
    """Return the textbook optimal k = (m/n) ln 2, at least 1."""
    if n_items <= 0:
        return 1
    return max(1, round((m_bits / n_items) * math.log(2)))


def single_false_positive_rate(m_bits: int, n_items: int, k: int | None = None) -> float:
    """Classic Bloom false-positive rate for one filter with n items."""
    if m_bits <= 0:
        raise ValidationError("bloom size must be positive")
    if n_items < 0:
        raise ValidationError("item count must be non-negative")
    if n_items == 0:
        return 0.0
    if k is None:
        k = optimal_hash_count(m_bits, n_items)
    bit_clear = (1.0 - 1.0 / m_bits) ** (n_items * k)
    return (1.0 - bit_clear) ** k


def false_linkage_rate(m_bits: int, n_items: int, k: int | None = None) -> float:
    """Two-way false-linkage probability (Section 6.3.2, Fig. 14).

    False linkage needs *both* directions' membership tests to be false
    positives, so the rate is the single-filter false-positive rate
    squared.  ``n_items`` is the number of entries in each filter (the
    paper's Fig. 14 axis; its printed formula folds the squaring into the
    exponents — see EXPERIMENTS.md for the reconciliation).  With the
    paper's m=2048 this gives ~0.1% at 300 entries, the published design
    point.
    """
    return single_false_positive_rate(m_bits, n_items, k) ** 2


def _bit_positions(item: bytes, k: int, m_bits: int) -> list[int]:
    """Derive k bit positions via double hashing (Kirsch–Mitzenmacher)."""
    digest = hashlib.sha256(item).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1  # odd => full period
    return [(h1 + i * h2) % m_bits for i in range(k)]


def key_positions(keys: Iterable[bytes], k: int, m_bits: int) -> np.ndarray:
    """Bit positions of many items at once: an ``(items, k)`` integer array.

    Row for row what :func:`_bit_positions` derives.  ``h1 + i * h2``
    does not fit 64 bits, so both hashes are reduced mod ``m_bits``
    before the multiplication (exact while ``k * m_bits < 2**64``).
    Nothing is cached: viewmap construction derives the positions of
    the VDs that reach its Bloom stage once per build and drops them.
    """
    heads = b"".join([hashlib.sha256(key).digest()[:16] for key in keys])
    h = np.frombuffer(heads, dtype=">u8").astype(np.uint64).reshape(-1, 2)
    m = np.uint64(m_bits)
    h1 = h[:, :1] % m
    h2 = (h[:, 1:] | np.uint64(1)) % m
    return ((h1 + np.arange(k, dtype=np.uint64) * h2) % m).astype(np.intp)


def unpacked_bits(filters: Sequence[BloomFilter]) -> np.ndarray:
    """Same-geometry filters as a ``(filters, m_bits)`` array of 0/1 bytes.

    ``[i, pos]`` is bit ``pos`` of filter ``i``, so a batch of
    :func:`key_positions` indexes it directly.
    """
    packed = np.frombuffer(b"".join([f._bits for f in filters]), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(filters), -1), axis=1, bitorder="little")


@dataclass
class BloomFilter:
    """A fixed-size Bloom filter over byte-string items.

    The default geometry (2048 bits, 8 hashes) matches the paper's VP
    layout.  Filters serialize to exactly ``m_bits/8`` bytes so they can be
    embedded in the VP wire format.
    """

    m_bits: int = BLOOM_BITS
    k: int = 8
    _bits: bytearray = field(init=False)
    count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.m_bits <= 0 or self.m_bits % 8:
            raise ValidationError("bloom size must be a positive multiple of 8 bits")
        if self.k <= 0:
            raise ValidationError("bloom hash count must be positive")
        self._bits = bytearray(self.m_bits // 8)

    def add(self, item: bytes) -> None:
        """Insert an item."""
        for pos in _bit_positions(item, self.k, self.m_bits):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self.count += 1

    def __contains__(self, item: bytes) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7))
            for pos in _bit_positions(item, self.k, self.m_bits)
        )

    def contains_positions(self, positions: np.ndarray) -> np.ndarray:
        """Membership of a :func:`key_positions` batch: one bool per item."""
        return unpacked_bits([self])[0][positions].all(axis=-1)

    def fill_ratio(self) -> float:
        """Fraction of bits set — 1.0 flags an all-ones poisoning attack."""
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.m_bits

    def is_saturated(self, threshold: float = 0.95) -> bool:
        """True when the filter is suspiciously full (Section 6.3.2 attack)."""
        return self.fill_ratio() >= threshold

    def to_bytes(self) -> bytes:
        """Serialize the bit-array (``m_bits/8`` bytes)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, k: int = 8) -> "BloomFilter":
        """Rebuild a filter from its serialized bit-array."""
        bloom = cls(m_bits=len(data) * 8, k=k)
        bloom._bits = bytearray(data)
        return bloom

    @classmethod
    def all_ones(cls, m_bits: int = BLOOM_BITS, k: int = 8) -> "BloomFilter":
        """Adversarial filter claiming neighbourship with everyone."""
        bloom = cls(m_bits=m_bits, k=k)
        bloom._bits = bytearray(b"\xff" * (m_bits // 8))
        return bloom

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR of two same-geometry filters."""
        if self.m_bits != other.m_bits or self.k != other.k:
            raise ValidationError("cannot union bloom filters of different geometry")
        merged = BloomFilter(m_bits=self.m_bits, k=self.k)
        merged._bits = bytearray(a | b for a, b in zip(self._bits, other._bits))
        merged.count = self.count + other.count
        return merged
