"""What a stored VP costs, as counted work — bytes retained, digests unpacked.

No wall clock: ``tracemalloc`` counts the bytes a store still holds
after its input is released, and a counting wrapper around
``ViewDigest.unpack`` and the ``ViewDigest`` constructor (the
``unpack_calls`` fixture) counts digest objects created.  The paper
prices a VP at 4584 bytes (Section 6.1); a store that read its VPs from
bytes, and a vehicle that recorded one, should hold about that plus
indexes, and no path that only needs ids, minutes, positions or Bloom
keys should unpack a digest.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.core.guard import GuardVPFactory
from repro.core.neighbors import NeighborRecord
import repro.crypto.bloom as bloom_module
from repro.core.verification import verify_viewmap
from repro.core.viewmap import build_viewmap
from repro.geo.geometry import Point, Rect
from repro.net.messages import pack_vp_batch_frame
from repro.sim.stream import stream_convoy_vps, stream_vp
from repro.store import MemoryStore, SQLiteStore
from repro.store.codec import decode_vp_batch, encode_vp, encode_vp_batch
from repro.store.serving import QuerySpec

N_VPS = 256
VPS_PER_FRAME = 4
AREA_M = 2_000.0

#: ceiling on bytes retained per VP by a memory store fed codec frames
#: (block 4.3 kB + Bloom 0.4 kB + position array 1.1 kB + objects and
#: indexes; the digest-by-digest decode it replaces retained ~46 kB)
STORED_VP_BYTES_MAX = 8_000

#: ceiling per VP once a viewmap over it was built and verified: the VP
#: as decoded (block 4.3 kB + Bloom 0.4 kB + objects, 4.9 kB) — site
#: membership reads the viewmap's stacked columns, so no position array
#: stays cached on the VP (6.3 kB while ``claims_location_near`` ran per member)
INVESTIGATED_VP_BYTES_MAX = 5_500

#: what a VP's first ``encode_vp`` may leave behind: nothing but noise
#: (the block it was born as is the block it encodes)
FIRST_ENCODE_GROWTH_BYTES_MAX = 64


def retained_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def make_frames() -> list[bytes]:
    vps = [stream_vp(7, 0, vehicle, AREA_M) for vehicle in range(N_VPS)]
    return [
        encode_vp_batch(vps[i : i + VPS_PER_FRAME]) for i in range(0, N_VPS, VPS_PER_FRAME)
    ]


def test_memory_store_retains_about_the_wire_size_per_vp(unpack_calls):
    frames = make_frames()
    tracemalloc.start()
    try:
        before = retained_bytes()
        store = MemoryStore()
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
    assert len(ids) == N_VPS and 0 < in_half < N_VPS
    assert per_vp <= STORED_VP_BYTES_MAX, per_vp
    assert len(unpack_calls) == 0


def test_sqlite_area_query_and_viewmap_unpack_no_digest(unpack_calls):
    store = SQLiteStore()
    try:
        for frame in make_frames():
            store.insert_encoded(frame)
        quarter = Rect(0.0, 0.0, AREA_M / 2, AREA_M / 2)
        candidates = store.query(QuerySpec(minute=0, area=Rect(0.0, 0.0, AREA_M, AREA_M))).vps
        vmap = build_viewmap(candidates, minute=0, area=quarter)
    finally:
        store.close()
    assert len(candidates) == N_VPS
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
        store = MemoryStore()
        for i in range(0, n, 16):
            assert store.insert_encoded(pack_vp_batch_frame(vps[i : i + 16])) == 16
        candidates = store.query(QuerySpec(minute=1, area=Rect(0.0, 0.0, AREA_M, AREA_M))).vps
        vmap = build_viewmap(candidates, minute=1, area=Rect(0.0, 0.0, AREA_M / 2, AREA_M / 2))
        assert len(candidates) == n and 0 < vmap.node_count < n
        assert len(unpack_calls) == 0

        heard = [NeighborRecord(first=vd, last=vd) for vd in (vp.digests[0] for vp in vps)]
        actual = stream_vp(7, 2, 0, AREA_M)
        before = retained_bytes()
        guards = GuardVPFactory.with_seed(3, alpha=1.0).create_guards(actual, heard)
        guard_built = (retained_bytes() - before) / n
    finally:
        tracemalloc.stop()
    assert len(guards) == n
    assert built <= STORED_VP_BYTES_MAX, built
    assert guard_built <= STORED_VP_BYTES_MAX, guard_built
    assert encoded <= built + FIRST_ENCODE_GROWTH_BYTES_MAX, (encoded, built)


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
    verify_viewmap(build_viewmap(decode_vp_batch(frames[0]), minute=3), Point(*sites[0]), 200.0)
    tracemalloc.start()
    try:
        before = retained_bytes()
        vps = [vp for frame in frames for vp in decode_vp_batch(frame)]
        vmap = build_viewmap(vps, minute=3)
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
