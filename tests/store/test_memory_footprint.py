"""What a stored VP costs, as counted work — bytes retained, digests unpacked.

No wall clock: ``tracemalloc`` counts the bytes a store still holds
after its input is released (and the heap a ``view`` reply passes
through on its way to the client), and a counting wrapper around
``ViewDigest.unpack`` and the ``ViewDigest`` constructor (the
``unpack_calls`` fixture) counts digest objects created.  The paper
prices a VP at 4584 bytes (Section 6.1); a store that read its VPs from
bytes, and a vehicle that recorded one, should hold about that plus
indexes, and no path that only needs ids, minutes, positions or Bloom
keys should unpack a digest.  The volatile store keeps even less in the
heap: its records sit in anonymous segments (the kernel's page cache),
so what it retains per VP is its index entry alone.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.core.guard import GuardVPFactory
from repro.core.neighbors import NeighborRecord
from repro.core.system import ViewMapSystem
import repro.crypto.bloom as bloom_module
from repro.core.verification import verify_viewmap
from repro.core.viewmap import build_viewmap
from repro.geo.geometry import Point, Rect
from repro.net.messages import decode_message, encode_message, pack_vp_batch_frame
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.sim.stream import stream_convoy_vps, stream_vp
from repro.store import SegmentStore
from repro.store.base import vp_claims_in_area
from repro.store.codec import decode_vp_batch, encode_vp, encode_vp_batch
from repro.store.serving import QuerySpec
from tests.store.conftest import build_store

N_VPS = 256
VPS_PER_FRAME = 4
AREA_M = 2_000.0

#: ceiling on heap bytes retained per VP by ``SegmentStore()`` fed
#: codec frames: the id map entry, one 49 B column row and the id in the
#: minute's list (216 B measured).  The record bytes live in an anonymous
#: segment, outside the heap; the object store this replaced retained
#: 6.3 kB per VP (decoded block, Bloom, positions and a 60-cell grid entry)
STORED_VP_BYTES_MAX = 400

#: ceiling on what one VP object costs as built or decoded (block 4.3 kB
#: + Bloom 0.4 kB + objects, 5.1 kB measured; no position array: geometry
#: is read off the block per call.  The digest-by-digest decode it
#: replaces retained ~46 kB)
BUILT_VP_BYTES_MAX = 5_500

#: ceiling per VP once a viewmap over it was built and verified: the VP
#: as decoded (block 4.3 kB + Bloom 0.4 kB + objects, 4.9 kB) — site
#: membership reads the viewmap's record columns, and a VP caches no
#: position array (6.3 kB while ``claims_location_near`` ran per member)
INVESTIGATED_VP_BYTES_MAX = 5_500

#: what a VP's first ``encode_vp`` — or a batch encode, an insert and
#: every geometry read — may leave behind: nothing but noise (the block
#: it was born as is the block it encodes; geometry caches nothing)
FIRST_ENCODE_GROWTH_BYTES_MAX = 64

#: VPs in the minute a ``view`` reply reads whole: a 2.4 MB frame
REPLY_VPS = 512

#: the heap a whole-minute ``view`` reply may pass through, as a share
#: of the reply: the reply is one anonymous mapping from segment file to
#: decoded message (untraced); when it was staged through per-record
#: ``bytes``, a frame join, the envelope join and the client's copy, the
#: traced peak was about twice the reply
REPLY_HEAP_SHARE_MAX = 1 / 8


def retained_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def make_frames() -> list[bytes]:
    vps = [stream_vp(7, 0, vehicle, AREA_M) for vehicle in range(N_VPS)]
    return [
        encode_vp_batch(vps[i : i + VPS_PER_FRAME]) for i in range(0, N_VPS, VPS_PER_FRAME)
    ]


def test_memory_store_retains_its_index_alone_per_vp(unpack_calls):
    frames = make_frames()
    tracemalloc.start()
    try:
        before = retained_bytes()
        store = SegmentStore()
        for frame in frames:
            # a receive buffer: the store must not keep a view into it
            assert store.insert_encoded(memoryview(bytearray(frame))) == VPS_PER_FRAME
        ids = [vp_id for vp_id, minute in store.iter_id_minutes() if minute == 0]
        half = Rect(0.0, 0.0, AREA_M / 2, AREA_M)
        in_half = store.query(QuerySpec(minute=0, area=half)).n
        reply = store.query_encoded(QuerySpec(minute=0))
        assert store.existing_ids(ids) == set(ids)
        del frame, reply
        per_vp = (retained_bytes() - before) / N_VPS
    finally:
        tracemalloc.stop()
    store.close()
    assert len(ids) == N_VPS and 0 < in_half < N_VPS
    assert per_vp <= STORED_VP_BYTES_MAX, per_vp
    assert len(unpack_calls) == 0


def test_sqlite_area_query_and_viewmap_unpack_no_digest(unpack_calls):
    store = build_store("named")
    try:
        for frame in make_frames():
            store.insert_encoded(frame)
        quarter = Rect(0.0, 0.0, AREA_M / 2, AREA_M / 2)
        area = Rect(0.0, 0.0, AREA_M, AREA_M)
        candidates = store.query(QuerySpec(minute=0, area=area, encoded=True))
        vmap = build_viewmap(candidates.frame, minute=0, area=quarter)
    finally:
        store.close()
    assert candidates.n == N_VPS
    assert 0 < vmap.node_count < N_VPS  # members and non-members both present
    assert len(unpack_calls) == 0


def test_vehicle_built_vps_cost_what_stored_ones_do(unpack_calls):
    # A VP is born as its packed block on the vehicle too.  While it was
    # built from 60 ``ViewDigest`` objects a ``stream_vp`` VP retained
    # ~30 kB measured this way (a guard VP likewise) and grew by a
    # joined 4.3 kB block on its first encode.
    n = 64
    tracemalloc.start()
    try:
        before = retained_bytes()
        vps = [stream_vp(7, 1, vehicle, AREA_M) for vehicle in range(n)]
        built = (retained_bytes() - before) / n
        for vp in vps:
            encode_vp(vp)
        encoded = (retained_bytes() - before) / n

        # the upload path end to end, from the vehicle's generator to the
        # investigator's graph: no digest object anywhere
        store = SegmentStore()
        for i in range(0, n, 16):
            assert store.insert_encoded(pack_vp_batch_frame(vps[i : i + 16])) == 16
        area = Rect(0.0, 0.0, AREA_M, AREA_M)
        candidates = store.query(QuerySpec(minute=1, area=area, encoded=True))
        quarter = Rect(0.0, 0.0, AREA_M / 2, AREA_M / 2)
        vmap = build_viewmap(candidates.frame, minute=1, area=quarter)
        store.close()
        assert candidates.n == n and 0 < vmap.node_count < n
        assert len(unpack_calls) == 0

        heard = [NeighborRecord(first=vd, last=vd) for vd in (vp.digests[0] for vp in vps)]
        actual = stream_vp(7, 2, 0, AREA_M)
        before = retained_bytes()
        guards = GuardVPFactory.with_seed(3, alpha=1.0).create_guards(actual, heard)
        guard_built = (retained_bytes() - before) / n
    finally:
        tracemalloc.stop()
    assert len(guards) == n
    assert built <= BUILT_VP_BYTES_MAX, built
    assert guard_built <= BUILT_VP_BYTES_MAX, guard_built
    assert encoded <= built + FIRST_ENCODE_GROWTH_BYTES_MAX, (encoded, built)


def test_encoding_inserting_and_reading_geometry_leave_a_vp_its_size():
    # While positions, times and the bounding box were cached properties,
    # a frame encode (which reads ``bounding_box``) left each of these
    # VPs a (60, 2) float64 array and a tuple heavier: +1.45 kB.
    n = 64
    quarter = Rect(0.0, 0.0, AREA_M / 2, AREA_M / 2)
    tracemalloc.start()
    try:
        before = retained_bytes()
        vps = [stream_vp(7, 1, vehicle, AREA_M) for vehicle in range(n)]
        built = (retained_bytes() - before) / n
        frames = [pack_vp_batch_frame(vps[i : i + 16]) for i in range(0, n, 16)]
        store = SegmentStore()
        assert store.insert_many(vps) == n
        for vp in vps:
            assert vp.bounding_box[0] <= vp.positions_array[:, 0].min()
            assert vp.times_array.shape == (len(vp.positions_array),)
            vp_claims_in_area(vp, quarter)
        store.close()
        del frames, store
        after = (retained_bytes() - before) / n
    finally:
        tracemalloc.stop()
    assert built <= BUILT_VP_BYTES_MAX, built
    assert after <= built + FIRST_ENCODE_GROWTH_BYTES_MAX, (after, built)
    assert all(set(vars(vp)) == {"_block", "bloom", "trusted"} for vp in vps)


def test_an_investigation_leaves_stored_vps_the_size_they_were(unpack_calls):
    # Building and verifying a viewmap reads blocks, it does not inflate
    # them.  While ``build_viewmap`` walked ``vp.trajectory`` and cached
    # per-key Bloom positions, each of these VPs kept 17.7 kB of cached
    # arrays and points after one investigation, plus 36 kB in a
    # module-level position cache.
    sites = [(1000.0 + 300.0 * i, 1000.0) for i in range(6)]
    frames = []
    for i, site in enumerate(sites):
        trusted, witnesses = stream_convoy_vps(20 + i, 3, 16, site)
        trusted.trusted = True
        frames.append(encode_vp_batch([trusted, *witnesses]))
    recording = len(unpack_calls)  # the convoys' own VD exchange
    # once on a copy, untraced: numpy imports numpy.ma inside its first
    # np.unique (0.5 MB that scipy's import used to hide), no VP's cost
    verify_viewmap(build_viewmap(frames[0], minute=3), Point(*sites[0]), 200.0)
    tracemalloc.start()
    try:
        before = retained_bytes()
        vps = [vp for frame in frames for vp in decode_vp_batch(frame)]
        vmap = build_viewmap(encode_vp_batch(vps), minute=3)
        verification = verify_viewmap(vmap, Point(*sites[0]), 200.0)
        nodes, edges, legitimate = vmap.node_count, vmap.edge_count, len(verification.legitimate)
        del vmap, verification
        per_vp = (retained_bytes() - before) / len(vps)
    finally:
        tracemalloc.stop()
    assert nodes == len(vps) == 6 * 17 and edges >= 6 * 130 and legitimate > 1
    assert per_vp <= INVESTIGATED_VP_BYTES_MAX, per_vp
    assert all("trajectory" not in vars(vp) for vp in vps)
    assert not any(hasattr(obj, "cache_info") for obj in vars(bloom_module).values())
    assert len(unpack_calls) == recording


def test_a_whole_minute_view_reply_is_not_staged_in_the_heap():
    vps = [stream_vp(7, 0, vehicle, AREA_M) for vehicle in range(REPLY_VPS)]
    request = encode_message("query_view", session="analyst", minute=0, trusted=False)
    with ViewMapSystem(key_bits=512, seed=3) as system:
        server = ViewMapServer(system=system, network=InMemoryNetwork())
        assert system.ingest_vps(vps) == REPLY_VPS
        tracemalloc.start()
        try:
            reply = decode_message(server.handle(request))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    expected = encode_vp_batch(vps)
    assert reply["n"] == REPLY_VPS and reply["frame"] == expected
    assert len(expected) >= 2 << 20
    assert peak < len(expected) * REPLY_HEAP_SHARE_MAX, peak
