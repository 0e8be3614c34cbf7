"""A VP read from bytes equals the digest-by-digest decode, field by field.

``decode_vp`` keeps the blob's packed digest block and validates it as
columns; the decoder it replaced unpacked every digest and handed the
objects to the ``ViewProfile`` constructor.  That eager decoder lives on
here (:func:`eager_decode_vp`) as the oracle: for any well-formed blob
the two VPs must agree on every observable, and for any damaged blob
``decode_vp`` must raise what the oracle raises — from the call itself,
before an attribute of the result is read.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import VD_MESSAGE_BYTES
from repro.core.viewdigest import ViewDigest
from repro.core.viewmap import build_viewmap
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.errors import ValidationError, WireFormatError
from repro.net.messages import pack_view_profile, unpack_view_profile
from repro.sim.stream import stream_convoy_vps
from repro.store.codec import (
    VP_BLOB_VERSION,
    decode_vp,
    decode_vp_batch,
    encode_vp,
    encode_vp_batch,
)
from repro.util.encoding import (
    f32round,
    pack_prefixed,
    pack_uint,
    unpack_prefixed,
    unpack_uint,
)
from tests.store.conftest import make_vp


def eager_decode_vp(blob: bytes, trusted: bool = False) -> ViewProfile:
    """The decoder ``decode_vp`` replaced: every digest becomes an object."""
    if len(blob) < 3:
        raise WireFormatError("VP blob too short for header")
    version = unpack_uint(blob[0:1])
    if version != VP_BLOB_VERSION:
        raise WireFormatError(f"unsupported VP blob version {version}")
    bloom_k = unpack_uint(blob[1:3])
    digest_block, offset = unpack_prefixed(blob, 3)
    if len(digest_block) % VD_MESSAGE_BYTES:
        raise WireFormatError("digest block is not a multiple of 72")
    digests = [
        ViewDigest.unpack(digest_block[i : i + VD_MESSAGE_BYTES])
        for i in range(0, len(digest_block), VD_MESSAGE_BYTES)
    ]
    bloom = BloomFilter.from_bytes(blob[offset:], k=bloom_k)
    return ViewProfile(digests=digests, bloom=bloom, trusted=trusted)


def eager_encode_vp(vp: ViewProfile) -> bytes:
    """The encoder's definition: header, the 60 ``pack()``s, live Bloom."""
    return (
        pack_uint(VP_BLOB_VERSION, 1)
        + pack_uint(vp.bloom.k, 2)
        + pack_prefixed(b"".join(vd.pack() for vd in vp.digests))
        + vp.bloom.to_bytes()
    )


@st.composite
def vp_blobs(draw) -> bytes:
    """Storage blobs of arbitrary well-formed VPs, partial ones included."""
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
    bloom = BloomFilter.from_bytes(rng.randbytes(bloom_bytes), k=bloom_k)
    return eager_encode_vp(ViewProfile(digests=digests, bloom=bloom))


def assert_same_vp(wire: ViewProfile, ref: ViewProfile) -> None:
    assert wire.vp_id == ref.vp_id and isinstance(wire.vp_id, bytes)
    assert wire.vp_id_hex == ref.vp_id_hex
    assert wire.minute == ref.minute
    assert wire.n_digests == ref.n_digests
    assert (wire.start_time, wire.end_time) == (ref.start_time, ref.end_time)
    assert (wire.start_point, wire.end_point) == (ref.start_point, ref.end_point)
    assert wire.trusted == ref.trusted
    assert (wire.bloom.k, wire.bloom.to_bytes()) == (ref.bloom.k, ref.bloom.to_bytes())
    for name in ("positions_array", "times_array"):
        got, want = getattr(wire, name), getattr(ref, name)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit-exact, not just ==
    assert wire.bounding_box == ref.bounding_box
    assert wire.bloom_keys() == ref.bloom_keys()
    for t in (ref.start_time - 1, ref.start_time, ref.end_time, ref.end_time + 1,
              (ref.start_time + ref.end_time) / 2, ref.start_time + 0.3):
        assert wire.trajectory.at(t) == ref.trajectory.at(t)
    assert encode_vp(wire) == encode_vp(ref)
    # last: everything above held without a digest object existing
    assert wire.digests == ref.digests
    assert [vd.pack() for vd in wire.digests] == [vd.pack() for vd in ref.digests]
    assert wire == ref


@given(blob=vp_blobs(), trusted=st.booleans(), as_view=st.booleans())
@settings(max_examples=120, deadline=None)
def test_wire_backed_vp_equals_eager_reference(blob, trusted, as_view):
    source = bytearray(blob)
    wire = decode_vp(memoryview(source) if as_view else bytes(source), trusted)
    # the VP owns its bytes: scribbling over the source buffer afterwards
    # (a reused receive buffer) cannot reach it
    assert type(wire.digest_block()) is bytes
    source[:] = bytes(len(source))
    assert_same_vp(wire, eager_decode_vp(blob, trusted))
    assert encode_vp(wire) == blob


@given(blobs=st.lists(vp_blobs(), min_size=0, max_size=5), as_view=st.booleans())
@settings(max_examples=40, deadline=None)
def test_batch_frames_are_byte_identical(blobs, as_view):
    blobs = list({decode_vp(b).vp_id: b for b in blobs}.values())
    refs = [eager_decode_vp(blob, trusted=i % 2 == 0) for i, blob in enumerate(blobs)]
    frame = encode_vp_batch(refs)
    wires = decode_vp_batch(memoryview(frame) if as_view else frame)
    assert len(wires) == len(refs)
    for wire, ref in zip(wires, refs):
        assert_same_vp(wire, ref)
    assert encode_vp_batch(decode_vp_batch(frame)) == frame


def test_upload_block_round_trip_matches_reference():
    ref = make_vp(seed=3, n=60)
    block = pack_view_profile(ref)
    wire = unpack_view_profile(block)
    assert_same_vp(wire, ref)
    assert pack_view_profile(wire) == block
    assert type(unpack_view_profile(memoryview(block)).digest_block()) is bytes


def edge_set(vmap):
    return {frozenset(edge) for edge in vmap.graph.edges}


@pytest.mark.parametrize("seed", [1, 2])
def test_viewmap_from_stored_vps_has_the_same_edges(seed, unpack_calls):
    trusted, witnesses = stream_convoy_vps(seed, minute=2, n_witnesses=5, site_xy=(900.0, 400.0))
    trusted.trusted = True
    objects = [trusted, *witnesses, make_vp(seed=77, n=60, minute=2, x0=50_000.0)]
    frame = encode_vp_batch(objects)
    stored = decode_vp_batch(frame)
    got = build_viewmap(stored, minute=2)
    assert not unpack_calls  # members and non-members alike: no digest object
    eager = [eager_decode_vp(encode_vp(vp), vp.trusted) for vp in objects]

    want = build_viewmap(objects, minute=2)
    assert edge_set(got) == edge_set(want) == edge_set(build_viewmap(eager, minute=2))
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
    with pytest.raises(expected) as oracle:
        eager_decode_vp(blob)
    assert type(oracle.value) is expected  # the oracle itself is pinned
    with pytest.raises(expected) as raised:
        decode_vp(memoryview(blob) if as_view else blob)  # no attribute is read
    assert type(raised.value) is expected


def test_every_truncation_agrees_with_the_oracle():
    """Cut anywhere: same exception class as the eager decoder, or the
    same (short-Bloom) VP where that decoder accepts the prefix."""
    blob = good_blob()
    for cut in range(len(blob)):
        try:
            ref = eager_decode_vp(blob[:cut])
        except (WireFormatError, ValidationError) as exc:
            with pytest.raises(type(exc)):
                decode_vp(blob[:cut])
        else:
            assert_same_vp(decode_vp(blob[:cut]), ref)


def test_damaged_upload_block_is_refused_at_unpack():
    block = pack_view_profile(make_vp(seed=5, n=60))
    for bad in (block[:-1], block + b"\x00", b""):
        with pytest.raises(WireFormatError):
            unpack_view_profile(bad)
    as_blob = b"\x00" * 7 + block  # reuse the digest-field editor's offsets
    for damaged in (
        with_digest_field(as_blob, 30, VP_ID, b"\xee" * 16),
        with_digest_field(as_blob, 0, SECOND, pack_uint(0, 8)),
        with_digest_field(as_blob, 59, SECOND, pack_uint(61, 8)),
        with_digest_field(as_blob, 10, SECOND, pack_uint(10, 8)),
    ):
        with pytest.raises(ValidationError):
            unpack_view_profile(damaged[7:])


# -- first access to ``digests`` under a race --------------------------------


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
    # and whichever list won is the one every later reader gets
    for vp in stored:
        assert vp.digests is vp.digests
