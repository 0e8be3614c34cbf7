"""Fabric parity: every fabric lands and serves the same store.

The streaming front-end must be a pure transport optimization: a
sequence of batch uploads driven through a held streaming connection
and the same sequence through the buffer-whole threaded fabric leave
**byte-identical** store contents (ids, minutes, trusted flags, encoded
bodies, per-minute order) and identical acks — hypothesis-checked on
both placements, memory and sqlite.

Uploads are sequential within each arm, so insertion order is
deterministic and the comparison is exact, not just set-equal.

A streamed fleet burst also lands whole behind each of the three
fabrics (serial, worker pool, streaming) on both placements, is served
back as the store's own spans, and with every registry disabled is
recorded nowhere.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import ViewMapSystem
from repro.geo.geometry import Rect
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.net.messages import decode_message, encode_message, pack_vp_batch_frame
from repro.net.server import ViewMapServer
from repro.net.streaming import StreamingNetwork
from repro.net.transport import InMemoryNetwork
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim import iter_minute_frames, iter_minute_vps
from repro.store import QuerySpec, SegmentStore
from repro.store.codec import encode_vp_batch
from tests.net.test_wire_frame import (
    POOL_SIZE,
    make_complete_vp,
    store_contents,
)
from tests.store.conftest import STORE_PLACEMENTS, build_store


@pytest.fixture(scope="module")
def vp_pool():
    return [make_complete_vp(seed) for seed in range(1, POOL_SIZE + 1)]


#: several batches per example so cross-request duplicates are exercised
compositions_strategy = st.lists(
    st.lists(st.integers(0, POOL_SIZE - 1), min_size=1, max_size=5),
    min_size=1,
    max_size=3,
)


def run_threaded(backend: str, pool, compositions) -> tuple[list, dict]:
    with ViewMapSystem(key_bits=512, seed=3, store=build_store(backend)) as system:
        with ThreadedNetwork(workers=2) as net:
            server = ConcurrentViewMapServer(system=system, network=net)
            replies = []
            for composition in compositions:
                frame = pack_vp_batch_frame([pool[i] for i in composition])
                payload = encode_message("upload_vp_batch", session="s", frame=frame)
                replies.append(decode_message(net.send("v", server.address, payload)))
            return replies, store_contents(system)


def run_streaming(backend: str, pool, compositions) -> tuple[list, dict]:
    with ViewMapSystem(key_bits=512, seed=3, store=build_store(backend)) as system:
        with StreamingNetwork(workers=2) as net:
            server = ConcurrentViewMapServer(system=system, network=net)
            conn = net.connect(server.address)
            replies = [
                conn.upload_frame(pack_vp_batch_frame([pool[i] for i in composition]))
                for composition in compositions
            ]
            return replies, store_contents(system)


def assert_transport_parity(backend: str, pool, compositions) -> None:
    threaded_replies, threaded = run_threaded(backend, pool, compositions)
    streamed_replies, streamed = run_streaming(backend, pool, compositions)
    for a, b in zip(threaded_replies, streamed_replies):
        assert a["kind"] == b["kind"] == "batch_ack"
        assert a["accepted"] == b["accepted"]
        assert a["inserted"] == b["inserted"]
    assert threaded == streamed


@pytest.mark.parametrize("backend", ["anonymous", "named"])
@given(compositions=compositions_strategy)
@settings(max_examples=10, deadline=None)
def test_streaming_and_threaded_store_identical_bytes(backend, vp_pool, compositions):
    assert_transport_parity(backend, vp_pool, compositions)


#: the three fabrics an authority runs behind, by row name ->
#: metrics registry -> (network, server class); the serial fabric keeps
#: no registry of its own
FABRICS = {
    "serial": lambda metrics: (InMemoryNetwork(), ViewMapServer),
    "threaded": lambda metrics: (
        ThreadedNetwork(workers=2, metrics=metrics),
        ConcurrentViewMapServer,
    ),
    "streaming": lambda metrics: (
        StreamingNetwork(workers=2, metrics=metrics),
        ConcurrentViewMapServer,
    ),
}

#: the burst's city; a stream VP drives 118 m east of where it starts
AREA_M = 2_000.0
HOT_AREA = [0.0, 0.0, AREA_M + 200.0, AREA_M]
#: far outside the city: no record's bounding box overlaps it
COLD_AREA = [60_000.0, 60_000.0, 61_000.0, 61_000.0]


def burst(n_vehicles: int, minutes: int, seed: int) -> tuple[list[bytes], set[int]]:
    """A fleet's upload frames (four VPs each) and the ids they carry."""
    frames = [
        mf.frame
        for mf in iter_minute_frames(n_vehicles, minutes, seed=seed, area_m=AREA_M, batch_vps=4)
    ]
    ids = {vp.vp_id for _, vp in iter_minute_vps(n_vehicles, minutes, seed=seed, area_m=AREA_M)}
    return frames, ids


def upload_burst(net, address: str, frames: list[bytes]) -> tuple[str, list[dict]]:
    """Every frame as one upload, the way the fabric's clients send it:
    pipelined over one held connection when streaming, all in flight at
    once on the worker pool, back to back on the serial fabric.
    Returns the server stage that handled them and the decoded acks."""
    if isinstance(net, StreamingNetwork):
        conn = net.connect(address)
        try:
            futures = [conn.upload_frame_async(frame) for frame in frames]
            return "upload_stream", [decode_message(f.result(60.0)) for f in futures]
        finally:
            conn.close()
    payloads = [
        encode_message("upload_vp_batch", session=f"s{i}", frame=frame)
        for i, frame in enumerate(frames)
    ]
    if isinstance(net, ThreadedNetwork):
        futures = [net.send_async("v", address, payload) for payload in payloads]
        return "upload_vp_batch", [decode_message(f.result()) for f in futures]
    return "upload_vp_batch", [decode_message(net.send("v", address, p)) for p in payloads]


def query_view(net, address: str, area: list[float]) -> dict:
    payload = encode_message("query_view", session="a", minute=0, area=area)
    return decode_message(net.send("a", address, payload))


@pytest.mark.parametrize("placement", STORE_PLACEMENTS)
@pytest.mark.parametrize("fabric", list(FABRICS))
def test_a_fleet_burst_lands_whole_on_every_fabric(fabric, placement):
    # every upload acked whole, the store holds exactly the generator's
    # population, nothing lost or doubled, the server's and the store's
    # histograms hold one observation per upload, and a replay of the
    # same bytes is all duplicates
    frames, ids = burst(n_vehicles=12, minutes=2, seed=5)
    store = build_store(placement)
    net, server_cls = FABRICS[fabric](None)
    with ViewMapSystem(key_bits=512, seed=3, store=store) as system, net:
        server = server_cls(system=system, network=net)
        stage, acks = upload_burst(net, server.address, frames)
        assert all(ack["kind"] == "batch_ack" and all(ack["accepted"]) for ack in acks)
        stored = [vp.vp_id for m in store.minutes() for vp in store.query(QuerySpec(minute=m)).vps]
        assert len(stored) == len(store) == len(ids)
        assert set(stored) == ids
        handled = server.metrics.snapshot()[f"server.handle.{stage}.wall_s"]
        assert Histogram.from_dict(handled).count == len(frames)
        inserts = store.stats().detail["metrics"]["store.insert.wall_s"]
        assert Histogram.from_dict(inserts).count == len(frames)

        _, replayed = upload_burst(net, server.address, frames)
        assert all(ack["inserted"] == 0 and not any(ack["accepted"]) for ack in replayed)
        assert len(store) == len(ids)


@pytest.mark.parametrize("placement", STORE_PLACEMENTS)
@pytest.mark.parametrize("fabric", list(FABRICS))
def test_served_views_match_the_store_on_every_fabric(fabric, placement):
    # the hot frame on the wire is the store's own spans, byte-identical
    # to re-encoding the decoded selection; a cold area is a view of no
    # records; every query lands in the served-bytes histogram
    frames, ids = burst(n_vehicles=16, minutes=1, seed=11)
    net, server_cls = FABRICS[fabric](None)
    with ViewMapSystem(key_bits=512, seed=3, store=build_store(placement)) as system, net:
        server = server_cls(system=system, network=net)
        upload_burst(net, server.address, frames)
        hot = query_view(net, server.address, HOT_AREA)
        assert (hot["kind"], hot["n"]) == ("view", len(ids))
        spec = QuerySpec(minute=0, area=Rect(*HOT_AREA))
        assert hot["frame"] == system.database.query_encoded(spec)
        assert encode_vp_batch(system.database.query(spec).vps) == hot["frame"]
        cold = query_view(net, server.address, COLD_AREA)
        assert (cold["kind"], cold["n"]) == ("view", 0)
        assert cold["frame"] == encode_vp_batch([])
        assert system.database.query(QuerySpec(minute=0, count=True)).n == len(ids)
        served = Histogram.from_dict(server.metrics.snapshot()["serve.encoded_bytes"])
        assert served.count == 2


@pytest.mark.parametrize("fabric", list(FABRICS))
def test_disabled_registries_record_nothing(fabric):
    # observability is pure observation: with the fabric's, the server's
    # and the store's registries disabled an upload and a query still
    # answer, and no registry holds a single instrument
    frames, ids = burst(n_vehicles=8, minutes=1, seed=7)
    store = SegmentStore(metrics=MetricsRegistry(enabled=False))
    net, server_cls = FABRICS[fabric](MetricsRegistry(enabled=False))
    with ViewMapSystem(key_bits=512, seed=6, store=store) as system, net:
        server = server_cls(system=system, network=net, metrics=MetricsRegistry(enabled=False))
        _, acks = upload_burst(net, server.address, frames)
        assert sum(ack["inserted"] for ack in acks) == len(ids)
        assert query_view(net, server.address, HOT_AREA)["n"] == len(ids)
        if fabric != "serial":
            assert net.metrics.snapshot() == {}
        assert server.metrics.snapshot() == {}
        assert store.stats().detail["metrics"] == {}
