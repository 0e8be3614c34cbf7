"""What a stored VP costs, as counted work — bytes retained, digests unpacked.

No wall clock: ``tracemalloc`` counts the bytes a store still holds
after its input is released, and a counting wrapper around
``ViewDigest.unpack`` (the ``unpack_calls`` fixture) counts digest
objects created.  The paper prices a VP at 4584 bytes (Section 6.1); a
store that read its VPs from bytes should hold about that plus its
indexes, and no path that only needs ids, minutes, positions or Bloom
keys should unpack a digest.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.core.viewmap import build_viewmap
from repro.geo.geometry import Rect
from repro.sim.stream import stream_vp
from repro.store import MemoryStore, SQLiteStore
from repro.store.codec import encode_vp, encode_vp_batch
from repro.store.serving import QuerySpec

N_VPS = 256
VPS_PER_FRAME = 4
AREA_M = 2_000.0

#: ceiling on bytes retained per VP by a memory store fed codec frames
#: (block 4.3 kB + Bloom 0.4 kB + position array 1.1 kB + objects and
#: indexes; the digest-by-digest decode it replaces retained ~46 kB)
STORED_VP_BYTES_MAX = 8_000

#: what an object-built VP may retain beyond its parts: the instance
#: and its attribute dict (on CPython 3.11 they cost what the tuple
#: holding the reference parts does: measured difference -30 B)
VP_OBJECT_BYTES_MAX = 256

#: what its first ``encode_vp`` may add: the joined digest block, once
ENCODED_GROWTH_BYTES_MAX = 60 * 72 + 128


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


def test_object_built_vp_is_no_larger_than_at_the_parent():
    # Relative, so it holds on any interpreter: the reference is the
    # VP's own parts (packed digests + Bloom) built in this process.
    # At the parent (5d9ca77, CPython 3.11, this procedure) a VP held
    # 538 B beyond its parts (a key-list memo) and its first encode
    # added a 4680 B blob memo — both bounds fail there; here -30 B
    # and 4353 B.
    n = 64
    tracemalloc.start()
    try:
        before = retained_bytes()
        parts = [
            (vp.digests, vp.bloom)
            for vp in (stream_vp(7, 0, vehicle, AREA_M) for vehicle in range(n))
        ]
        parts_only = (retained_bytes() - before) / n
        before = retained_bytes()
        vps = [stream_vp(7, 1, vehicle, AREA_M) for vehicle in range(n)]
        built = (retained_bytes() - before) / n
        for vp in vps:
            encode_vp(vp)
        encoded = (retained_bytes() - before) / n
    finally:
        tracemalloc.stop()
    assert len(parts) == len(vps)
    assert built <= parts_only + VP_OBJECT_BYTES_MAX, (built, parts_only)
    assert encoded <= built + ENCODED_GROWTH_BYTES_MAX, (encoded, built)
