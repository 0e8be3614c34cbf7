"""A VP is its packed block: round trips, observables, refused damage.

Whoever builds it — a list of ``ViewDigest`` objects, a generator's
block, ``decode_vp`` over a blob — a ``ViewProfile`` holds n x 72
bytes, so "object-built equals wire-built" is one code path and is not
tested as two.  What is: every observable of a VP equals what the
digests it was built from say, field by field; blobs, frames and digest
blocks round-trip byte for byte and never pin the buffer they came in;
and every kind of damaged blob is refused with its pinned error class
by ``decode_vp`` itself, before an attribute of the result is read.
"""

from __future__ import annotations

import random
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import VD_MESSAGE_BYTES
from repro.core.viewdigest import ViewDigest
from repro.core.viewmap import build_viewmap
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.errors import ValidationError, WireFormatError
from repro.sim.stream import stream_convoy_vps
from repro.store.codec import (
    VP_BLOB_VERSION,
    decode_vp,
    decode_vp_batch,
    encode_vp,
    encode_vp_batch,
)
from repro.util.encoding import f32round, pack_prefixed, pack_uint
from repro.util.timeline import minute_of
from tests.store.conftest import make_vp


def reference_blob(digests: list[ViewDigest], bloom: BloomFilter) -> bytes:
    """The storage blob's definition: header, every ``pack()``, the Bloom."""
    return (
        pack_uint(VP_BLOB_VERSION, 1)
        + pack_uint(bloom.k, 2)
        + pack_prefixed(b"".join(vd.pack() for vd in digests))
        + bloom.to_bytes()
    )


@st.composite
def vp_parts(draw) -> tuple[list[ViewDigest], BloomFilter]:
    """Digests and Bloom of an arbitrary well-formed VP, partial ones included."""
    seconds = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=60)))
    minute = draw(st.integers(0, 10_000))
    bloom_k = draw(st.integers(1, 16))
    bloom_bytes = draw(st.sampled_from([8, 64, 256]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    vp_id = rng.randbytes(16)
    start = (f32round(rng.uniform(-1e5, 1e5)), f32round(rng.uniform(-1e5, 1e5)))
    jitter = draw(st.sampled_from([0.0, 0.25, 0.999]))
    digests = [
        ViewDigest(
            second_index=second,
            t=minute * 60.0 + second - 1 + jitter,
            location=(
                f32round(start[0] + rng.uniform(-40, 40) * second),
                f32round(start[1] + rng.uniform(-40, 40) * second),
            ),
            file_size=rng.getrandbits(draw(st.sampled_from([8, 40, 64]))),
            initial_location=start,
            vp_id=vp_id,
            chain_hash=rng.randbytes(16),
        )
        for second in seconds
    ]
    return digests, BloomFilter.from_bytes(rng.randbytes(bloom_bytes), k=bloom_k)


#: per-axis coordinate pools on float edges, each narrower than a VP's
#: 10 km extent bound: signed zeros and the smallest float32 subnormals,
#: the float32 limit, and 2**24, where float32 spacing reaches 2 m
F32_MAX = float(np.finfo(np.float32).max)
EDGE_POOLS = [
    [0.0, -0.0, 2.0**-149, -(2.0**-149)],
    [F32_MAX],
    [-F32_MAX],
    [2.0**24 - 1.0, 2.0**24, 2.0**24 + 2.0],
]


def edge_parts(xs: list[float], ys: list[float], seed: int) -> tuple[list[ViewDigest], BloomFilter]:
    """Digests and Bloom of a VP claiming the positions ``zip(xs, ys)``."""
    rng = random.Random(seed)
    vp_id = rng.randbytes(16)
    digests = [
        ViewDigest(
            second_index=second,
            t=60.0 + second - 1,
            location=(x, y),
            file_size=second,
            initial_location=(xs[0], ys[0]),
            vp_id=vp_id,
            chain_hash=rng.randbytes(16),
        )
        for second, x, y in zip(range(1, len(xs) + 1), xs, ys)
    ]
    return digests, BloomFilter.from_bytes(rng.randbytes(256))


@st.composite
def edge_vp_parts(draw) -> tuple[list[ViewDigest], BloomFilter]:
    """Digests and Bloom of a VP whose positions sit on float edges."""
    n = draw(st.integers(1, 60))
    x_pool, y_pool = draw(st.sampled_from(EDGE_POOLS)), draw(st.sampled_from(EDGE_POOLS))
    xs = draw(st.lists(st.sampled_from(x_pool), min_size=n, max_size=n))
    ys = draw(st.lists(st.sampled_from(y_pool), min_size=n, max_size=n))
    return edge_parts(xs, ys, draw(st.integers(0, 2**32)))


def assert_vp_matches(vp: ViewProfile, digests: list[ViewDigest], bloom: BloomFilter) -> None:
    """Every observable, against the digest objects the VP was built from."""
    assert vp.vp_id == digests[0].vp_id and isinstance(vp.vp_id, bytes)
    assert vp.vp_id_hex == digests[0].vp_id.hex()
    assert vp.minute == minute_of(digests[0].t)
    assert vp.n_digests == len(digests)
    assert (vp.start_time, vp.end_time) == (digests[0].t, digests[-1].t)
    assert (vp.start_point, vp.end_point) == (digests[0].point, digests[-1].point)
    assert (vp.bloom.k, vp.bloom.to_bytes()) == (bloom.k, bloom.to_bytes())
    positions = np.array([vd.location for vd in digests], dtype=np.float64)
    times = np.array([vd.t for vd in digests], dtype=np.float64)
    for got, want in ((vp.positions_array, positions), (vp.times_array, times)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit-exact, not just ==
    assert vp.bounding_box == (*positions.min(axis=0).tolist(), *positions.max(axis=0).tolist())
    assert vp.bloom_keys() == [vd.pack() for vd in digests]
    assert vp.digest_block() == b"".join(vd.pack() for vd in digests)
    assert vp.trajectory.times == times.tolist()
    assert [p.to_tuple() for p in vp.trajectory.points] == [vd.location for vd in digests]
    assert encode_vp(vp) == reference_blob(digests, bloom)
    # last: everything above held without a digest object existing
    assert vp.digests == digests and len(vp.digests) == len(digests)
    assert vp.digests[-1] == digests[-1] and vp.digests[:2] == digests[:2]


@given(parts=vp_parts(), trusted=st.booleans(), as_view=st.booleans())
@settings(max_examples=120, deadline=None)
def test_vp_matches_the_digests_it_was_built_from(parts, trusted, as_view):
    digests, bloom = parts
    built = ViewProfile(digests=digests, bloom=bloom, trusted=trusted)
    assert_vp_matches(built, digests, bloom)
    blob = reference_blob(digests, bloom)
    source = bytearray(blob)
    wire = decode_vp(memoryview(source) if as_view else bytes(source), trusted)
    # the VP owns its bytes: scribbling over the source buffer afterwards
    # (a reused receive buffer) cannot reach it
    assert type(wire.digest_block()) is bytes
    source[:] = bytes(len(source))
    assert_vp_matches(wire, digests, bloom)
    assert wire.trusted == built.trusted == trusted
    assert wire == built and encode_vp(wire) == blob


@given(batch=st.lists(vp_parts(), min_size=0, max_size=5), as_view=st.booleans())
@settings(max_examples=40, deadline=None)
def test_batch_frames_are_byte_identical(batch, as_view):
    batch = list({digests[0].vp_id: (digests, bloom) for digests, bloom in batch}.values())
    vps = [
        ViewProfile(digests=digests, bloom=bloom, trusted=i % 2 == 0)
        for i, (digests, bloom) in enumerate(batch)
    ]
    frame = encode_vp_batch(vps)
    wires = decode_vp_batch(memoryview(frame) if as_view else frame)
    assert len(wires) == len(vps)
    for wire, vp, (digests, bloom) in zip(wires, vps, batch):
        assert_vp_matches(wire, digests, bloom)
        assert wire == vp
    assert encode_vp_batch(decode_vp_batch(frame)) == frame


@given(parts=st.one_of(vp_parts(), edge_vp_parts()))
@example(parts=edge_parts([-0.0, -0.0], [F32_MAX, F32_MAX], seed=1))
@example(parts=edge_parts([0.0, -0.0, 0.0], [-F32_MAX] * 3, seed=2))
@settings(max_examples=120, deadline=None)
def test_geometry_is_bit_identical_on_every_read(parts):
    # geometry is computed per read, never cached: the first read, every
    # later one and the float64 min/max over the digests agree bit for
    # bit (the sign of a zero included), and so does every batch encode
    digests, bloom = parts
    vp = ViewProfile(digests=digests, bloom=bloom)
    positions = np.array([vd.location for vd in digests], dtype=np.float64)
    box = (*positions.min(axis=0).tolist(), *positions.max(axis=0).tolist())
    frame = encode_vp_batch([vp])
    for read in (vp, vp, *decode_vp_batch(frame)):
        assert read.positions_array.tobytes() == positions.tobytes()
        assert struct.pack(">4d", *read.bounding_box) == struct.pack(">4d", *box)
        assert encode_vp_batch([read]) == frame


def test_digest_block_round_trip_matches_reference():
    ref = make_vp(seed=3, n=60)
    block, bits = ref.digest_block(), ref.bloom.to_bytes()
    wire = ViewProfile.from_wire(block, bits)
    assert_vp_matches(wire, list(ref.digests), ref.bloom)
    assert (wire.digest_block(), wire.bloom.to_bytes()) == (block, bits)
    assert type(ViewProfile.from_wire(memoryview(block), bits).digest_block()) is bytes


def edge_set(vmap):
    return {frozenset(edge) for edge in vmap.graph.edges}


@pytest.mark.parametrize("seed", [1, 2])
def test_viewmap_from_stored_vps_has_the_same_edges(seed, unpack_calls):
    trusted, witnesses = stream_convoy_vps(seed, minute=2, n_witnesses=5, site_xy=(900.0, 400.0))
    trusted.trusted = True
    built = [trusted, *witnesses, make_vp(seed=77, n=60, minute=2, x0=50_000.0)]
    del unpack_calls[:]  # the convoy members heard each other's first and last digests
    frame = encode_vp_batch(built)
    got = build_viewmap(encode_vp_batch(decode_vp_batch(frame)), minute=2)
    want = build_viewmap(frame, minute=2)
    assert not unpack_calls  # members and non-members alike: no digest object

    assert edge_set(got) == edge_set(want)
    assert want.edge_count >= 5  # the convoy really is linked
    assert set(got.graph.nodes) == set(want.graph.nodes)
    assert got.trusted_ids() == want.trusted_ids()


# -- damaged blobs -----------------------------------------------------------


def good_blob(n: int = 4) -> bytes:
    return encode_vp(make_vp(seed=5, n=n))


def with_digest_field(blob: bytes, index: int, field: slice, value: bytes) -> bytes:
    out = bytearray(blob)
    base = 7 + index * VD_MESSAGE_BYTES
    out[base + field.start : base + field.stop] = value
    return bytes(out)


SECOND = slice(32, 40)
VP_ID = slice(40, 56)


def damaged_blobs() -> list[tuple[str, bytes, type]]:
    blob = good_blob()
    block_end = 7 + 4 * VD_MESSAGE_BYTES
    cases = [
        ("empty", b"", WireFormatError),
        ("cut inside header", blob[:2], WireFormatError),
        ("cut before length prefix", blob[:3], WireFormatError),
        ("cut inside length prefix", blob[:5], WireFormatError),
        ("cut after length prefix", blob[:7], WireFormatError),
        ("empty bloom", blob[:block_end], ValidationError),
        ("bad version", b"\x02" + blob[1:], WireFormatError),
        ("zero bloom k", blob[:1] + b"\x00\x00" + blob[3:], ValidationError),
        ("empty digest block", blob[:3] + pack_uint(0, 4) + blob[block_end:], ValidationError),
        (
            "block one byte short of a digest multiple",
            blob[:3] + pack_uint(4 * VD_MESSAGE_BYTES - 1, 4) + blob[7:],
            WireFormatError,
        ),
        (
            "block one byte over a digest multiple",
            blob[:3] + pack_uint(3 * VD_MESSAGE_BYTES + 1, 4) + blob[7:],
            WireFormatError,
        ),
        (
            "length prefix past the end",
            blob[:3] + pack_uint(len(blob), 4) + blob[7:],
            WireFormatError,
        ),
        ("mixed vp_id", with_digest_field(blob, 2, VP_ID, b"\xee" * 16), ValidationError),
        ("zero second index", with_digest_field(blob, 0, SECOND, pack_uint(0, 8)), ValidationError),
        ("second index 61", with_digest_field(blob, 3, SECOND, pack_uint(61, 8)), ValidationError),
        (
            "second index 2**63",
            with_digest_field(blob, 3, SECOND, pack_uint(2**63, 8)),
            ValidationError,
        ),
        ("repeated second", with_digest_field(blob, 2, SECOND, pack_uint(2, 8)), ValidationError),
        ("decreasing second", with_digest_field(blob, 1, SECOND, pack_uint(1, 8)), ValidationError),
    ]
    # truncation at every digest boundary inside the block
    cases += [
        (f"cut at digest {i}", blob[: 7 + i * VD_MESSAGE_BYTES], WireFormatError)
        for i in range(1, 4)
    ]
    cases += [
        (f"cut inside digest {i}", blob[: 7 + i * VD_MESSAGE_BYTES + 40], WireFormatError)
        for i in range(4)
    ]
    return cases


@pytest.mark.parametrize(
    "blob, expected", [pytest.param(b, e, id=name) for name, b, e in damaged_blobs()]
)
@pytest.mark.parametrize("as_view", [False, True], ids=["bytes", "memoryview"])
def test_damaged_blob_is_refused_at_decode(blob, expected, as_view):
    with pytest.raises(expected) as raised:
        decode_vp(memoryview(blob) if as_view else blob)  # no attribute is read
    assert type(raised.value) is expected


def test_every_truncation_is_refused_or_is_the_same_vp_with_a_shorter_bloom():
    """Cut anywhere: inside the header or the digest block is damaged
    framing, at the block's end an empty Bloom, and inside the Bloom a
    valid blob of the same digests with fewer Bloom bytes."""
    whole = decode_vp(good_blob())
    blob = good_blob()
    block_end = 7 + 4 * VD_MESSAGE_BYTES
    for cut in range(len(blob)):
        if cut <= block_end:
            with pytest.raises(WireFormatError if cut < block_end else ValidationError):
                decode_vp(blob[:cut])
        else:
            vp = decode_vp(blob[:cut])
            assert vp.digest_block() == whole.digest_block()
            assert vp.bloom.to_bytes() == blob[block_end:cut]


def test_damaged_digest_block_is_refused_by_from_wire():
    vp = make_vp(seed=5, n=60)
    block, bits = vp.digest_block(), vp.bloom.to_bytes()
    for bad in (block[:-1], block + b"\x00"):
        with pytest.raises(WireFormatError):
            ViewProfile.from_wire(bad, bits)
    with pytest.raises(ValidationError):
        ViewProfile.from_wire(b"", bits)
    as_blob = b"\x00" * 7 + block  # reuse the digest-field editor's offsets
    for damaged in (
        with_digest_field(as_blob, 30, VP_ID, b"\xee" * 16),
        with_digest_field(as_blob, 0, SECOND, pack_uint(0, 8)),
        with_digest_field(as_blob, 59, SECOND, pack_uint(61, 8)),
        with_digest_field(as_blob, 10, SECOND, pack_uint(10, 8)),
    ):
        with pytest.raises(ValidationError):
            ViewProfile.from_wire(damaged[7:], bits)


# -- ``digests`` under concurrent readers --------------------------------------


def test_racing_first_access_to_digests_sees_complete_lists():
    reference = [make_vp(seed=200 + i, n=60) for i in range(40)]
    stored = decode_vp_batch(encode_vp_batch(reference))
    n_threads = 4
    barrier = threading.Barrier(n_threads, timeout=10.0)
    seen: list[list] = [[] for _ in range(n_threads)]

    def reader(slot: int) -> None:
        barrier.wait()
        for vp in stored:
            seen[slot].append(list(vp.digests))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for per_thread in seen:
        assert len(per_thread) == len(reference)
        for digests, ref in zip(per_thread, reference):
            assert digests == ref.digests
    # nothing was unpacked into the VPs: each read is its own objects
    for vp in stored:
        assert vp.digests[0] == vp.digests[0] and vp.digests[0] is not vp.digests[0]
