"""Column kernels on the vehicle side equal their per-object definitions.

* ``packed_chain_heads`` packs every second's ``T | L | F`` into one
  array before hashing and runs one chain per row, each from its own
  head; row by row it yields what iterated ``chain_step`` and the
  field-by-field ``reference_chain_step`` yield, for any times (NaN and
  infinities included), float32-extreme locations, file sizes up to
  2**64 - 1, empty chunks and rows of no seconds — and the upload check
  built on it still stops hashing at the first mismatch.
* ``encode_vp_batch`` and ``encode_vp_frames`` derive every record's
  minute and bounding box in one pass over the batch's joined digest
  columns; the frame equals one encoded VP by VP, for batches mixing
  digest counts and negative coordinates, and the bounded frames are
  that frame cut every 64 records.
* A minute past the record's 4-byte field is a ``WireFormatError`` at
  every entry point that frames or stores a VP, and nothing is stored.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbors import NeighborTable
from repro.core.solicitation import validate_video_upload
from repro.core.system import ViewMapSystem
from repro.core.viewdigest import (
    PACKED_DIGEST_DTYPE,
    VDGenerator,
    make_secret,
    packed_chain_heads,
)
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.crypto.hashing import chain_step
from repro.errors import WireFormatError
from repro.net.messages import pack_vp_batch_frame, unpack_vp_batch_frame
from repro.store.codec import Batch, encode_vp, encode_vp_batch, encode_vp_frames
from tests.core.reference_recording import reference_chain_step
from tests.store.conftest import build_store, insert_vp, insert_vps

#: float32 values at and near the ends of the format, and non-numbers
float32s = st.one_of(
    st.floats(width=32, allow_nan=True, allow_infinity=True),
    st.sampled_from([3.4028235e38, -3.4028235e38, 1e-45, -1e-45, -0.0]),
)


@st.composite
def chain_columns(draw):
    """(packed rows, heads, chunks): ``(rows, n)`` digests and one head
    per row; the shared chunks may be fewer or more than ``n``."""
    n_rows, n = draw(st.integers(1, 4)), draw(st.integers(0, 12))

    def cells(elements, dtype, *shape):
        values = draw(st.lists(elements, min_size=n_rows * n, max_size=n_rows * n))
        return np.array(values, dtype=dtype).reshape(n_rows, n, *shape)

    rows = np.zeros((n_rows, n), dtype=PACKED_DIGEST_DTYPE)
    rows["t"] = cells(st.floats(allow_nan=True, allow_infinity=True), np.float64)
    rows["location"] = cells(st.tuples(float32s, float32s), np.float32, 2)
    sizes = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1]))
    rows["file_size"] = cells(sizes, np.uint64)
    heads = draw(st.lists(st.binary(min_size=16, max_size=16), min_size=n_rows, max_size=n_rows))
    chunks = draw(st.lists(st.binary(max_size=40), max_size=n + 2))
    return rows, heads, chunks


def iterated(step, rows: np.ndarray, head: bytes, chunks: list[bytes]) -> list[bytes]:
    """``step`` applied second by second over one row's Python values."""
    heads = []
    columns = zip(rows["t"].tolist(), rows["location"].tolist(), rows["file_size"].tolist())
    for (t, location, file_size), chunk in zip(columns, chunks):
        head = step(t, tuple(location), file_size, head, chunk)
        heads.append(head)
    return heads


@settings(max_examples=300, deadline=None)
@given(columns=chain_columns())
def test_packed_chain_heads_equal_iterated_chain_steps(columns):
    rows, heads, chunks = columns
    replayed = list(packed_chain_heads(rows, heads, chunks))
    per_row = min(rows.shape[1], len(chunks))
    assert len(replayed) == len(rows) * per_row
    for row, head in enumerate(heads):
        mine = replayed[row * per_row : (row + 1) * per_row]
        assert mine == iterated(chain_step, rows[row], head, chunks)
        assert mine == iterated(reference_chain_step, rows[row], head, chunks)
    # one row alone, as a vehicle records it, is that row of the frame
    assert list(packed_chain_heads(rows[-1], heads[-1:], chunks)) == mine


def test_a_nan_time_keeps_its_bits_in_the_chain():
    rows = np.zeros(1, dtype=PACKED_DIGEST_DTYPE)
    rows["t"].view(">u8")[0] = 0x7FF8_0000_DEAD_BEEF  # a NaN with a payload
    (head,) = packed_chain_heads(rows, [bytes(16)], [b"x"])
    hashed = rows["t"].tobytes() + struct.pack(">ddQ", 0.0, 0.0, 0) + bytes(16) + b"x"
    assert head == hashlib.sha256(hashed).digest()[:16]
    assert head == chain_step(rows["t"].tolist()[0], (0.0, 0.0), 0, bytes(16), b"x")


class CountingChunks(list):
    """Chunks that count how many the upload check has pulled."""

    pulled = 0

    def __iter__(self):
        for chunk in super().__iter__():
            self.pulled += 1
            yield chunk


def recorded_minute(seed: int) -> tuple[ViewProfile, list[bytes]]:
    gen = VDGenerator(make_secret(seed))
    chunks = [bytes([seed, i]) * 20 for i in range(60)]
    gen.record([60.0 + i + 1 for i in range(60)], [(2.0 * i, -5.0) for i in range(60)], chunks)
    return build_view_profile(gen.digests, NeighborTable()), chunks


@pytest.mark.parametrize("edited", [0, 10, 59])
def test_the_upload_check_stops_at_the_first_mismatch(edited):
    vp, chunks = recorded_minute(3)
    assert validate_video_upload(vp, CountingChunks(chunks))
    tampered = CountingChunks(chunks)
    tampered[edited] = b"edited"
    assert not validate_video_upload(vp, tampered)
    assert tampered.pulled == edited + 1


# -- batch metadata in one pass ------------------------------------------------


def reference_encode_vp_batch(vps: list[ViewProfile]) -> bytes:
    """The frame as it was built, VP by VP, from each VP's own properties."""
    parts = [struct.pack(">BI", 1, len(vps))]
    for vp in vps:
        body = encode_vp(vp)
        parts.append(struct.pack(">BI4d", int(vp.trusted), vp.minute, *vp.bounding_box))
        parts.append(vp.vp_id + struct.pack(">I", len(body)) + body)
    return b"".join(parts)


@st.composite
def mixed_vps(draw):
    """1..6 VPs of 1..60 digests each, around negative and positive origins."""
    vps = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 60))
        minute = draw(st.sampled_from([0, 1, 7, 2**32 - 1]))
        x0 = draw(st.floats(-5e6, 5e6))
        y0 = draw(st.floats(-5e6, 5e6))
        steps = draw(
            st.lists(
                st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
                min_size=n,
                max_size=n,
            )
        )
        gen = VDGenerator(make_secret(draw(st.integers(0, 2**32))))
        gen.record(
            [minute * 60.0 + i + draw(st.sampled_from([0.0, 0.5])) for i in range(n)],
            [(x0 + dx, y0 + dy) for dx, dy in steps],
            [b"c"] * n,
        )
        vp = build_view_profile(gen.digests, NeighborTable())
        vp.trusted = draw(st.booleans())
        vps.append(vp)
    return vps


@settings(max_examples=150, deadline=None)
@given(vps=mixed_vps(), trusted=st.booleans())
def test_batch_metadata_equals_the_per_vp_encoding(vps, trusted):
    assert encode_vp_batch(vps) == reference_encode_vp_batch(vps)
    assert Batch.from_frame(encode_vp_batch(vps, trusted=trusted)).meta == [
        (vp.vp_id, vp.minute, int(trusted or vp.trusted), *vp.bounding_box) for vp in vps
    ]


def test_a_batch_of_many_passes_equals_the_per_vp_encoding():
    vp, _chunks = recorded_minute(4)
    vps = [build_view_profile(vp.digests[: 1 + i % 60], NeighborTable()) for i in range(150)]
    assert encode_vp_batch(vps) == reference_encode_vp_batch(vps)
    for trusted in (False, True):
        assert list(encode_vp_frames(vps, trusted=trusted)) == [
            encode_vp_batch(vps[first : first + 64], trusted=trusted) for first in (0, 64, 128)
        ]
    assert list(encode_vp_frames([])) == []


# -- the 4-byte minute field -------------------------------------------------------


def vp_starting_at(t0: float, seed: int = 5) -> ViewProfile:
    gen = VDGenerator(make_secret(seed))
    gen.record([t0 + i for i in range(60)], [(10.0 + i, 20.0) for i in range(60)], [b"c"] * 60)
    return build_view_profile(gen.digests, NeighborTable())


#: first digest times whose minute does not fit: 2**32 exactly, and far past it
PAST_THE_FIELD = [60.0 * 2**32, 60.0 * 2**32 + 59.5, 1e300]


@pytest.mark.parametrize("t0", PAST_THE_FIELD)
def test_a_minute_past_the_field_is_a_wire_format_error_when_framed(t0):
    vp = vp_starting_at(t0)
    assert vp.minute >= 2**32  # a valid VP: nothing polices its time range
    with pytest.raises(WireFormatError, match="4-byte minute field"):
        encode_vp_batch([vp])
    with pytest.raises(WireFormatError, match="4-byte minute field"):
        pack_vp_batch_frame([vp])
    with pytest.raises(WireFormatError, match="4-byte minute field"):
        encode_vp_batch([vp], trusted=True)
    with pytest.raises(WireFormatError, match="4-byte minute field"):
        next(encode_vp_frames([vp]))


@pytest.mark.parametrize("t0", PAST_THE_FIELD)
@pytest.mark.parametrize("placement", ["anonymous", "named"])
def test_a_minute_past_the_field_stores_nothing(t0, placement):
    vp = vp_starting_at(t0)
    with build_store(placement) as store:
        with pytest.raises(WireFormatError):
            insert_vp(store, vp)
        with pytest.raises(WireFormatError):
            insert_vps(store, [vp_starting_at(60.0, seed=6), vp])
        assert len(store) == 0 and store.minutes() == []
    system = ViewMapSystem(key_bits=512, seed=1, store=build_store(placement))
    try:
        with pytest.raises(WireFormatError):
            system.ingest_vps([vp_starting_at(60.0, seed=7), vp])
        with pytest.raises(WireFormatError):
            system.ingest_trusted_vp(vp)
        assert len(system.database) == 0 and not vp.trusted
    finally:
        system.close()


def test_the_last_minute_of_the_field_frames_and_validates():
    t0 = 60.0 * (2**32 - 1) + 59.0
    vp = vp_starting_at(t0)
    batch = unpack_vp_batch_frame(pack_vp_batch_frame([vp]))
    assert batch.meta[0][1] == 2**32 - 1 == vp.minute


def test_a_negative_minute_keeps_its_message():
    with pytest.raises(WireFormatError, match="cannot batch-encode negative minute -1"):
        encode_vp_batch([vp_starting_at(-30.0)])
