"""Byte-level encoding helpers shared by wire formats and hash inputs.

All multi-byte integers are big-endian so that packed messages sort the
same way as their numeric values, which keeps golden bytes in tests stable.
"""

from __future__ import annotations

import struct

from repro.errors import WireFormatError

_FLOAT64 = struct.Struct(">d")


def pack_float(value: float) -> bytes:
    """Pack a float into 8 big-endian IEEE-754 bytes."""
    return _FLOAT64.pack(float(value))


def unpack_float(data: bytes) -> float:
    """Unpack 8 big-endian IEEE-754 bytes into a float."""
    if len(data) != 8:
        raise WireFormatError(f"expected 8 bytes for float64, got {len(data)}")
    return _FLOAT64.unpack(data)[0]


def pack_uint(value: int, width: int) -> bytes:
    """Pack a non-negative integer into ``width`` big-endian bytes."""
    if value < 0:
        raise WireFormatError(f"cannot pack negative value {value}")
    try:
        return int(value).to_bytes(width, "big")
    except OverflowError as exc:
        raise WireFormatError(f"{value} does not fit in {width} bytes") from exc


def unpack_uint(data: bytes) -> int:
    """Unpack big-endian bytes into a non-negative integer."""
    return int.from_bytes(data, "big")


def to_hex(data: bytes) -> str:
    """Render bytes as lowercase hex (for identifiers in logs and boards)."""
    return data.hex()


def from_hex(text: str) -> bytes:
    """Parse lowercase/uppercase hex back into bytes."""
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise WireFormatError(f"invalid hex string: {text!r}") from exc


_FLOAT32_PAIR = struct.Struct(">ff")


def pack_pair_f32(x: float, y: float) -> bytes:
    """Pack an (x, y) coordinate pair into 8 bytes (two float32)."""
    return _FLOAT32_PAIR.pack(x, y)


def unpack_pair_f32(data: bytes) -> tuple[float, float]:
    """Unpack 8 bytes into an (x, y) coordinate pair."""
    if len(data) != 8:
        raise WireFormatError(f"expected 8 bytes for float32 pair, got {len(data)}")
    return _FLOAT32_PAIR.unpack(data)


def f32round(value: float) -> float:
    """Round a float to float32 precision (the wire precision of locations).

    VD hash inputs must use exactly the values a receiver can recover from
    the 72-byte wire format, so positions are rounded through float32
    before hashing or packing.
    """
    return _FLOAT32_PAIR.unpack(_FLOAT32_PAIR.pack(value, 0.0))[0]
