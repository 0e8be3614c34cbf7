"""A ``view`` reply is one buffer; a request's attachments are views.

The store reads a selection into one anonymous mapping with room for
the envelope head in front, the server writes that head in place, and
the client decodes attachments as read-only views — so the reply must
stay byte-identical to ``encode_message("view", ...)`` over a naive
selection, the largest head must fit the room, and a handler must copy
whatever it keeps out of a request.
"""

from __future__ import annotations

import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.geo.geometry import Point, Rect
from repro.net.messages import (
    decode_message,
    encode_message,
    envelope_head,
    pack_query_view,
)
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.store import SegmentStore
from repro.store.base import vp_claims_in_area
from repro.store.codec import encode_vp_batch
from repro.store.serving import REPLY_HEAD_ROOM, QuerySpec, reply_with_head
from tests.conftest import run_linked_minute
from tests.store.conftest import insert_vp, insert_vps, make_vp

#: the populated minutes; MISSING has no segment at all
MINUTES = (0, 1)
MISSING = 5


def serve(population: list[tuple]) -> tuple[ViewMapServer, list]:
    """A server over a fresh store holding ``(seed, minute, x0, step,
    trusted)`` VPs, inserted in one batch: adjacent in their segments."""
    system = ViewMapSystem(key_bits=512, seed=3, store=SegmentStore())
    server = ViewMapServer(system=system, network=InMemoryNetwork())
    vps = []
    for seed, minute, x0, step, trusted in population:
        vp = make_vp(seed=seed, n=3, minute=minute, x0=x0, y0=x0 / 2, step=step)
        vp.trusted = trusted  # travels in the batch metadata
        vps.append(vp)
    insert_vps(system.database.store, vps)
    return server, vps


def check_reply(server: ViewMapServer, vps: list, spec: QuerySpec) -> None:
    """The in-place reply against the store's frame and a naive scan."""
    request = encode_message("query_view", session="s", **pack_query_view(spec))
    reply = server.handle(request)
    assert type(reply) is memoryview and reply.readonly
    assert isinstance(reply.obj, mmap.mmap)
    result = server.system.database.query(QuerySpec(**{**vars(spec), "encoded": True}))
    assert reply == encode_message("view", frame=bytes(result.frame), n=result.n)
    selected = [
        vp
        for vp in vps
        if vp.minute == spec.minute
        and (vp.trusted or not spec.trusted_only)
        and (spec.area is None or vp_claims_in_area(vp, spec.area))
    ]
    assert reply == encode_message("view", frame=encode_vp_batch(selected), n=len(selected))
    decoded = decode_message(reply)
    # the client's frame is a view of the same mapping: no copy on the way
    assert decoded["frame"].obj is reply.obj and decoded["n"] == len(selected)


populations = st.lists(
    st.tuples(
        st.integers(1, 10_000),
        st.sampled_from(MINUTES),
        st.floats(0.0, 400.0, allow_nan=False),
        # a long step leaves area between positions inside the box
        st.sampled_from([1.0, 10.0, 100.0]),
        st.booleans(),
    ),
    max_size=10,
    unique_by=lambda row: row[0],
)
areas = st.one_of(
    st.none(),
    st.tuples(st.floats(-50.0, 450.0), st.floats(-50.0, 250.0), st.floats(0.0, 300.0)).map(
        lambda box: Rect(box[0], box[1], box[0] + box[2], box[1] + box[2] / 2)
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    population=populations,
    minute=st.sampled_from(MINUTES + (MISSING,)),
    area=areas,
    trusted_only=st.booleans(),
)
def test_the_in_place_reply_is_the_encoded_view(population, minute, area, trusted_only):
    server, vps = serve(population)
    try:
        check_reply(server, vps, QuerySpec(minute=minute, area=area, trusted_only=trusted_only))
    finally:
        server.system.close()


#: one minute of untrusted VPs spread along x — the last three with
#: positions 1 000, 1 100, 1 200 and 1 150, 1 151, 1 152 — and one
#: trusted VP in minute 1
NAMED_POPULATION = [(seed, 0, 40.0 * seed, 10.0, False) for seed in range(1, 7)] + [
    (7, 0, 1_150.0, 1.0, False),
    (8, 0, 1_000.0, 100.0, False),
    (9, 0, 1_150.0, 1.0, False),
    (99, 1, 0.0, 10.0, True),
]


@pytest.mark.parametrize(
    "spec",
    [
        QuerySpec(minute=0),
        QuerySpec(minute=0, area=Rect(100.0, 0.0, 200.0, 200.0)),
        # seed 8's box overlaps, none of its positions is inside: the
        # record read after it, from the same preadv, moves over it
        QuerySpec(minute=0, area=Rect(1_110.0, 0.0, 1_190.0, 1_000.0)),
        QuerySpec(minute=1, trusted_only=True),
        QuerySpec(minute=0, trusted_only=True),  # a minute with nothing selected
        QuerySpec(minute=0, area=Rect(5_000.0, 5_000.0, 6_000.0, 6_000.0)),
        QuerySpec(minute=MISSING),
    ],
    ids=[
        "whole-minute",
        "area",
        "area-drops-between",
        "trusted-only",
        "empty-minute",
        "cold-area",
        "missing",
    ],
)
def test_named_selections_reply_byte_for_byte(spec):
    server, vps = serve(NAMED_POPULATION)
    try:
        check_reply(server, vps, spec)
    finally:
        server.system.close()


def test_the_head_room_fits_ten_digit_counts():
    most = 2**32 - 1
    # a 4 GiB frame's length without 4 GiB: one byte, stride 0
    huge = memoryview(np.lib.stride_tricks.as_strided(np.zeros(1, np.uint8), (most,), (0,)))
    head = envelope_head("view", frame=huge, n=most)
    assert len(head) <= REPLY_HEAD_ROOM
    assert head.endswith(b'{"frame":{"$bytes":4294967295},"kind":"view","n":4294967295}')
    store = SegmentStore()
    try:
        insert_vp(store, make_vp(seed=1))
        frame = store.query_encoded(QuerySpec(minute=0))
        reply = reply_with_head(frame, head)
        assert reply == head + frame and reply.readonly
    finally:
        store.close()


def test_a_head_goes_only_into_a_reply_mapping():
    with pytest.raises(ValueError, match="reply mapping"):
        reply_with_head(memoryview(encode_vp_batch([])), b"head")
    store = SegmentStore()
    try:
        frame = store.query_encoded(QuerySpec(minute=0))
        with pytest.raises(ValueError, match="reply mapping"):
            reply_with_head(frame, bytes(REPLY_HEAD_ROOM + 1))
    finally:
        store.close()


def test_handlers_keep_bytes_not_views_of_the_request():
    """``upload_video`` and the reward claims keep nothing of the buffer.

    Each request arrives in a ``bytearray``: a view of it would keep the
    buffer from growing (and could not key a dict), so after the reply
    the buffer must resize and the system must hold ``bytes``.
    """
    system = ViewMapSystem(key_bits=512, seed=1)
    server = ViewMapServer(system=system, network=InMemoryNetwork())
    police, civilian = VehicleAgent(vehicle_id=100, seed=10), VehicleAgent(vehicle_id=1, seed=11)
    res_police, res_civ = run_linked_minute(police, civilian)
    system.ingest_trusted_vp(res_police.actual_vp)
    system.ingest_vps([res_civ.actual_vp])
    system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
    vp_id, video = res_civ.actual_vp.vp_id, res_civ.video

    def send(kind: str, **fields) -> dict:
        request = bytearray(encode_message(kind, session="s", **fields))
        reply = decode_message(server.handle(request))
        request += b"\0"  # raises BufferError while any view of it lives
        return reply

    assert send("upload_video", vp_id=vp_id, chunks=video.chunks)["accepted"] is True
    ((kept_id, chunks),) = system.pending_review.items()
    assert type(kept_id) is bytes and kept_id == vp_id
    assert all(type(chunk) is bytes for chunk in chunks) and chunks == list(video.chunks)
    system.human_review(vp_id, units=2)
    assert send("claim_reward", vp_id=vp_id, secret=video.secret)["units"] == 2
    signed = send("sign_blinded", vp_id=vp_id, secret=video.secret, blinded=["3", "5"])
    assert signed["kind"] == "signatures" and len(signed["signatures"]) == 2
    system.close()
