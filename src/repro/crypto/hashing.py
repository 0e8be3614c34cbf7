"""Hashing primitives: truncated digests and the cascaded VD hash chain.

Section 5.1.1 of the paper defines the per-second view digest hash

    H_ui = H(T_ui | L_ui | F_ui | H_u(i-1) | u_(i-1..i)),    H_u0 = R_u

i.e. each second hashes only the metadata, the *previous* hash, and the
newly recorded content chunk.  This makes VD generation O(chunk) instead of
O(file), which is the whole point of Fig. 8: a normal whole-file hash
misses the 1-second broadcast deadline on a Raspberry Pi after ~20 s of
recording, while the cascaded hash stays constant-time.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from repro.constants import HASH_BYTES
from repro.errors import DigestChainError

#: ``T_ui | L_ui | F_ui`` as a chain step hashes them: 32 bytes, the
#: location as two float64 (of values already rounded to float32)
_CHAIN_META = struct.Struct(">dddQ")


def digest16(*parts: bytes) -> bytes:
    """Return the first 16 bytes of SHA-256 over the concatenated parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()[:HASH_BYTES]


def digest32(*parts: bytes) -> bytes:
    """Return the full 32-byte SHA-256 over the concatenated parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def chain_step(
    t: float, location: tuple[float, float], file_size: int, head: bytes, chunk: bytes
) -> bytes:
    """One cascaded-hash step: ``H_ui`` from the second's metadata, the
    previous head and its content (hashed in place, never copied)."""
    h = hashlib.sha256(_CHAIN_META.pack(t, *location, file_size) + head)
    h.update(chunk)
    return h.digest()[:HASH_BYTES]


@dataclass
class CascadedHashChain:
    """Incremental cascaded hash over a growing video file.

    The chain is seeded with the video's VP identifier ``R_u`` (``H_u0 =
    R_u``) and extended once per second with that second's metadata and
    content chunk.  ``current`` is ``H_ui`` after ``i`` extensions.
    """

    seed: bytes
    current: bytes = field(init=False)
    steps: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if len(self.seed) != HASH_BYTES:
            raise DigestChainError(
                f"chain seed must be {HASH_BYTES} bytes, got {len(self.seed)}"
            )
        self.current = self.seed

    def extend(
        self,
        t: float,
        location: tuple[float, float],
        file_size: int,
        chunk: bytes,
    ) -> bytes:
        """Absorb one second of recording; return the new chain head H_ui."""
        self.current = chain_step(t, location, file_size, self.current, chunk)
        self.steps += 1
        return self.current


@dataclass
class NormalHashChain:
    """Whole-file re-hashing baseline used as the Fig. 8 comparator.

    Each second it re-reads and re-hashes the entire file recorded so far,
    so its cost grows linearly with recording time.
    """

    seed: bytes
    _buffer: bytearray = field(init=False, default_factory=bytearray)
    steps: int = field(init=False, default=0)

    def extend(
        self,
        t: float,
        location: tuple[float, float],
        file_size: int,
        chunk: bytes,
    ) -> bytes:
        """Append the chunk, then hash the whole file from scratch."""
        self._buffer.extend(chunk)
        self.steps += 1
        return digest16(
            _CHAIN_META.pack(t, *location, file_size), self.seed, bytes(self._buffer)
        )

    @property
    def total_bytes(self) -> int:
        """Total bytes hashed on the most recent extension."""
        return len(self._buffer)


def replay_chain(
    seed: bytes,
    seconds: list[tuple[float, tuple[float, float], int, bytes]],
) -> list[bytes]:
    """Replay a cascaded chain over (t, location, file_size, chunk) tuples.

    Used by the system to validate an uploaded video against the VDs it
    already holds (Section 5.2.3): if the replayed heads differ from the
    VD hashes, the upload is not the solicited video.
    """
    chain = CascadedHashChain(seed)
    return [chain.extend(t, loc, size, chunk) for t, loc, size, chunk in seconds]
