"""Every stored VP is one fixed record, whatever its digest count.

A VP of 1-60 digests is written as one ``RECORD_DTYPE`` record: its
digests in the first slots, zeros after.  Written through
``encode_vp_batch`` into either placement of the log, it comes back
content-equal from every reader — ``get``, each ``query`` axis,
``RecordColumns`` and ``decode_vp_batch`` — and every stored record is
exactly one stride.  An area query agrees with ``vp_claims_in_area``
over the decoded VPs when a location sits on a bound float32 cannot
represent.  A filled slot past the held digests is refused by every
reader, and a Bloom of another size by every writer, each with one
class and one message.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbors import NeighborTable
from repro.core.system import ViewMapSystem
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.crypto.bloom import BloomFilter
from repro.errors import WireFormatError
from repro.geo.geometry import Point, Rect
from repro.net.messages import pack_vp_batch_frame
from repro.store.base import vp_claims_in_area
from repro.store.codec import (
    FRAME_HEADER_BYTES,
    RECORD_BYTES,
    RECORD_OVERHEAD_BYTES,
    RecordColumns,
    decode_vp,
    decode_vp_batch,
    encode_vp,
    encode_vp_batch,
    encode_vp_frames,
    iter_encoded_meta,
)
from repro.store.serving import QuerySpec
from tests.store.conftest import (
    STORE_PLACEMENTS,
    build_store,
    fingerprint,
    fingerprints,
)

#: one VP: (digest count, minute, x cell, y cell, trusted)
vp_specs = st.lists(
    st.tuples(
        st.integers(1, 60),
        st.integers(0, 2),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


def diagonal_vp(seed: int, n: int, minute: int, x0: float, y0: float, trusted: bool):
    """A VP of ``n`` digests on a diagonal: its box holds points it never claims."""
    gen = VDGenerator(make_secret(seed))
    for i in range(n):
        gen.tick(minute * 60.0 + i + 1, Point(x0 + 3.3 * i, y0 + 2.7 * i), b"chunk")
    vp = build_view_profile(gen.digests, NeighborTable())
    vp.trusted = trusted
    return vp


def corpus(specs, seed: int) -> list[ViewProfile]:
    return [
        diagonal_vp(1000 * seed + i + 1, n, minute, 300.1 * xc, 300.7 * yc, trusted)
        for i, (n, minute, xc, yc, trusted) in enumerate(specs)
    ]


def claimed(vps, area: Rect) -> list[tuple]:
    return fingerprints([vp for vp in vps if vp_claims_in_area(vp, area)])


@pytest.mark.parametrize("placement", STORE_PLACEMENTS)
@given(specs=vp_specs, seed=st.integers(0, 99))
@settings(max_examples=20, deadline=None)
def test_every_reader_returns_what_was_written_one_stride_each(placement, specs, seed):
    vps = corpus(specs, seed)
    store = build_store(placement)
    try:
        assert store.insert_encoded(encode_vp_batch(vps)) == len(vps)
        for vp in vps:
            assert fingerprint(store.get(vp.vp_id)) == fingerprint(vp)
        for minute in sorted({vp.minute for vp in vps}):
            want = [vp for vp in vps if vp.minute == minute]
            frame = store.query(QuerySpec(minute=minute, encoded=True)).frame
            assert len(frame) == FRAME_HEADER_BYTES + len(want) * RECORD_BYTES
            assert {end - start for _m, start, end in iter_encoded_meta(frame)} == {RECORD_BYTES}
            if placement == "named":  # each record and its 8-byte header, nothing else
                size = os.path.getsize(f"{store.path}.{minute:08d}.seg")
                assert size == len(want) * (8 + RECORD_BYTES)
            columns = RecordColumns.from_frame(frame)
            assert fingerprints(map(columns.profile, range(len(columns)))) == fingerprints(want)
            assert fingerprints(decode_vp_batch(frame)) == fingerprints(want)
            assert fingerprints(store.query(QuerySpec(minute=minute)).vps) == fingerprints(want)
            trusted = store.query(QuerySpec(minute=minute, trusted_only=True)).vps
            assert fingerprints(trusted) == fingerprints([vp for vp in want if vp.trusted])
            assert store.query(QuerySpec(minute=minute, count=True)).n == len(want)
            x, y = want[0].positions_array[0].tolist()
            area = Rect(x - 150.0, y - 150.0, x + 150.0, y + 150.0)
            assert fingerprints(store.query(QuerySpec(minute=minute, area=area)).vps) == (
                claimed(want, area)
            )
    finally:
        store.close()


def _below(value: float) -> float:
    return float(np.nextafter(value, -np.inf))


def _above(value: float) -> float:
    return float(np.nextafter(value, np.inf))


#: rectangles with one bound a float64 step off a VP's float32 location
#: ``(x, y)`` — float32 cannot tell that bound from the location.  The
#: VP's box overlaps each, and only the point on the bound could be in
#: it: just outside for the first four, on the closed bound for the last
EDGES = {
    "y_max below": lambda x, y: Rect(x, y - 500.0, x + 500.0, _below(y)),
    "x_max below": lambda x, y: Rect(x - 500.0, y, _below(x), y + 500.0),
    "y_min above": lambda x, y: Rect(x - 500.0, _above(y), x, y + 500.0),
    "x_min above": lambda x, y: Rect(_above(x), y - 500.0, x + 500.0, y),
    "on the bound": lambda x, y: Rect(x, y - 500.0, x + 500.0, y),
}


@pytest.mark.parametrize("placement", STORE_PLACEMENTS)
@given(
    specs=vp_specs,
    seed=st.integers(0, 99),
    n=st.integers(3, 60),
    at=st.floats(0.0, 1.0, exclude_max=True),
    edge=st.sampled_from(sorted(EDGES)),
)
@settings(max_examples=30, deadline=None)
def test_an_area_on_a_float32_location_answers_as_decoding_does(
    placement, specs, seed, n, at, edge
):
    # the target crosses the minute of the first spec, the rest are
    # background; the bound sits on one of its inner points
    vps = corpus(specs, seed)
    minute = vps[0].minute
    target = diagonal_vp(7_000_000 + seed, n, minute, 10.3, -20.9, trusted=False)
    vps.append(target)
    x, y = target.positions_array[1 + int(at * (n - 2))].tolist()
    area = EDGES[edge](x, y)
    store = build_store(placement)
    try:
        store.insert_encoded(encode_vp_batch(vps))
        decoded = decode_vp_batch(store.query(QuerySpec(minute=minute, encoded=True)).frame)
        got = store.query(QuerySpec(minute=minute, area=area))
        assert fingerprints(got.vps) == claimed(decoded, area)
        assert (target.vp_id in {vp.vp_id for vp in got.vps}) == (edge == "on the bound")
        assert store.query(QuerySpec(minute=minute, area=area, count=True)).n == len(got.vps)
    finally:
        store.close()


def _refusal(call) -> tuple[type, str]:
    with pytest.raises(Exception) as raised:
        call()
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize("placement", STORE_PLACEMENTS)
def test_a_filled_slot_past_the_held_digests_is_refused_by_every_reader(placement):
    vps = [diagonal_vp(1, 60, 0, 0.0, 0.0, False), diagonal_vp(2, 4, 0, 50.0, 0.0, False)]
    frame = bytearray(encode_vp_batch(vps))
    body = FRAME_HEADER_BYTES + RECORD_BYTES + RECORD_OVERHEAD_BYTES
    frame[body + 7 + 10 * 72 + 3] = 1  # a byte of slot 10 of the 4-digest VP
    frame = bytes(frame)
    want = (WireFormatError, "VP digest slots past its held digests are not zero")
    store = build_store(placement)
    try:
        store.insert_encoded(frame)  # the log stores bytes; reads police them
        readers = [
            lambda: decode_vp_batch(frame),
            lambda: RecordColumns.from_frame(frame),
            lambda: decode_vp(frame[body : body + RECORD_BYTES - RECORD_OVERHEAD_BYTES]),
            lambda: store.get(vps[1].vp_id),
            lambda: store.query(QuerySpec(minute=0)),
            lambda: RecordColumns.from_frame(store.query(QuerySpec(minute=0, encoded=True)).frame),
        ]
        assert [_refusal(read) for read in readers] == [want] * len(readers)
        assert fingerprint(store.get(vps[0].vp_id)) == fingerprint(vps[0])
    finally:
        store.close()


@pytest.mark.parametrize("placement", STORE_PLACEMENTS)
def test_a_bloom_of_another_size_is_refused_by_every_writer(placement):
    vp = diagonal_vp(3, 60, 0, 0.0, 0.0, False)
    wide = ViewProfile(vp.digests, BloomFilter(m_bits=4096, k=6))
    want = (WireFormatError, "cannot encode a 4096-bit Bloom filter; a VP record holds 2048 bits")
    system = ViewMapSystem(key_bits=512, store=build_store(placement))
    try:
        writers = [
            lambda: encode_vp(wide),
            lambda: encode_vp_batch([vp, wide]),
            lambda: encode_vp_batch([vp, wide], trusted=True),
            lambda: next(encode_vp_frames([vp, wide])),
            lambda: pack_vp_batch_frame([vp, wide]),
            lambda: system.ingest_vps([vp, wide]),
            lambda: system.ingest_trusted_vp(wide),
        ]
        assert [_refusal(write) for write in writers] == [want] * len(writers)
        assert len(system.database) == 0 and not wide.trusted  # refused before anything landed
    finally:
        system.close()
