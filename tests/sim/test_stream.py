"""Tests for the constant-memory streaming load generator."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.system import ViewMapSystem
from repro.errors import SimulationError
from repro.net.messages import MAX_VP_BATCH, decode_message, encode_message
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.obs.metrics import Histogram
from repro.sim import iter_minute_frames, iter_minute_vps
from repro.store.codec import decode_vp_batch


class TestStreamShape:
    def test_minute_major_order_and_population(self):
        seen = list(iter_minute_vps(3, 2, seed=5))
        assert [minute for minute, _ in seen] == [0, 0, 0, 1, 1, 1]
        ids = {vp.vp_id for _, vp in seen}
        assert len(ids) == 6  # seed-derived identities never collide
        for minute, vp in seen:
            assert vp.minute == minute
            assert len(vp.digests) == 60  # wire-eligible: complete VPs

    def test_frames_chunk_within_minutes(self):
        frames = list(iter_minute_frames(10, 2, seed=1, batch_vps=4))
        assert [(f.minute, f.n_vps) for f in frames] == [
            (0, 4), (0, 4), (0, 2), (1, 4), (1, 4), (1, 2),
        ]
        for frame in frames:
            vps = decode_vp_batch(frame.frame)
            assert len(vps) == frame.n_vps
            assert all(vp.minute == frame.minute for vp in vps)

    def test_streams_are_deterministic_and_seed_disjoint(self):
        a = [f.frame for f in iter_minute_frames(4, 1, seed=7)]
        b = [f.frame for f in iter_minute_frames(4, 1, seed=7)]
        assert a == b
        other = [f.frame for f in iter_minute_frames(4, 1, seed=8)]
        assert set(a).isdisjoint(other)

    def test_lazy_generation_no_upfront_materialization(self):
        # a fleet far too large to materialize must still hand out its
        # first frame promptly — only batch_vps VPs exist at a time
        stream = iter_minute_frames(1_000_000, 1_000, seed=0, batch_vps=8)
        first = next(stream)
        assert first.minute == 0 and first.n_vps == 8

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            list(iter_minute_frames(0, 1))
        with pytest.raises(SimulationError):
            list(iter_minute_frames(1, 0))
        with pytest.raises(SimulationError):
            list(iter_minute_frames(1, 1, batch_vps=0))
        with pytest.raises(SimulationError):
            list(iter_minute_frames(1, 1, batch_vps=MAX_VP_BATCH + 1))


class TestPinnedInputs:
    """Every benchmark input comes out of this module: its bytes are pinned.

    Golden digests computed at commit 0a693d1, when a VP was still built
    from 60 ``ViewDigest`` objects; a change to the generator that moves
    one byte of a frame, an id or a Bloom filter fails here, not as an
    unexplained shift in some benchmark's ``inputs_sha256``.
    """

    def test_streamed_frames_are_the_pinned_bytes(self):
        frames = iter_minute_frames(16, 2, seed=1, area_m=2000.0)
        digest = hashlib.sha256(b"".join(mf.frame for mf in frames)).hexdigest()
        assert digest == "bf96f9be0704ba8046d97605576974b809c6211c060812e500d9cfd53f9dbfc2"

    def test_convoy_ids_and_blooms_are_the_pinned_bytes(self):
        from repro.sim.stream import stream_convoy_vps

        trusted, witnesses = stream_convoy_vps(1, 0, 6, (1000.0, 1000.0))
        digest = hashlib.sha256()
        for vp in sorted([trusted, *witnesses], key=lambda vp: vp.vp_id):
            digest.update(vp.vp_id + vp.bloom.to_bytes())
        assert digest.hexdigest() == (
            "7b97e5ede065f8cb809cdecea5b7af9463c397032434813df86a16c52dda9d5d"
        )


def upload_payloads(n_vehicles: int, minutes: int, seed: int, batch_vps: int) -> list[bytes]:
    """One ``upload_vp_batch`` request per streamed frame, each on a fresh session."""
    return [
        encode_message("upload_vp_batch", session=f"stream-{seed}-{i}", frame=mf.frame)
        for i, mf in enumerate(
            iter_minute_frames(n_vehicles, minutes, seed=seed, batch_vps=batch_vps)
        )
    ]


class TestStreamIngest:
    def test_payloads_ingest_through_the_server(self):
        net = InMemoryNetwork()
        system = ViewMapSystem(key_bits=512, seed=1)
        server = ViewMapServer(system=system, network=net)
        n_vehicles, minutes = 5, 2
        payloads = upload_payloads(n_vehicles, minutes, seed=3, batch_vps=4)
        for payload in payloads:
            reply = decode_message(net.send("vehicle", server.address, payload))
            assert reply["kind"] == "batch_ack"
            assert all(reply["accepted"])
        assert len(system.database) == n_vehicles * minutes
        snap = server.metrics.snapshot()
        assert snap["server.upload.accepted"]["value"] == n_vehicles * minutes
        # the server boundary's ingest latency: one observation per upload
        handled = Histogram.from_dict(snap["server.handle.upload_vp_batch.wall_s"])
        assert handled.count == len(payloads)

    def test_replayed_stream_is_all_duplicates(self):
        net = InMemoryNetwork()
        system = ViewMapSystem(key_bits=512, seed=1)
        server = ViewMapServer(system=system, network=net)
        payloads = upload_payloads(3, 1, seed=9, batch_vps=3)
        for payload in payloads:
            net.send("vehicle", server.address, payload)
        for payload in payloads:  # identical bytes: every VP already stored
            reply = decode_message(net.send("vehicle", server.address, payload))
            assert not any(reply["accepted"])
        assert len(system.database) == 3


class TestStreamConvoy:
    def test_trusted_and_witnesses_are_mutually_linked(self):
        from repro.core.viewmap import mutual_linkage
        from repro.sim.stream import stream_convoy_vps

        trusted, witnesses = stream_convoy_vps(0, 0, 2, (5000.0, 5000.0))
        assert len(witnesses) == 2
        members = [trusted] + witnesses
        for a in members:
            for b in members:
                if a is not b:
                    assert mutual_linkage(a, b)

    def test_convoy_vps_are_wire_eligible_and_cross_the_site(self):
        from repro.net.messages import pack_vp_batch_frame
        from repro.sim.stream import stream_convoy_vps

        trusted, witnesses = stream_convoy_vps(3, 2, 1, (1000.0, 1000.0))
        for vp in [trusted] + witnesses:
            assert vp.minute == 2
            assert len(vp.digests) == 60
            assert vp.start_point.x < 1000.0 < vp.end_point.x
        # complete VPs: the anonymous witnesses fit the zero-decode frame
        assert pack_vp_batch_frame(witnesses)

    def test_deterministic_and_disjoint_across_minutes(self):
        from repro.sim.stream import stream_convoy_vps

        t1, w1 = stream_convoy_vps(4, 0, 2, (0.0, 0.0))
        t2, w2 = stream_convoy_vps(4, 0, 2, (0.0, 0.0))
        assert t1.vp_id == t2.vp_id
        assert [w.vp_id for w in w1] == [w.vp_id for w in w2]
        t3, w3 = stream_convoy_vps(4, 1, 2, (0.0, 0.0))
        ids_0 = {t1.vp_id} | {w.vp_id for w in w1}
        ids_1 = {t3.vp_id} | {w.vp_id for w in w3}
        assert ids_0.isdisjoint(ids_1)

    def test_needs_a_witness(self):
        from repro.sim.stream import stream_convoy_vps

        with pytest.raises(SimulationError):
            stream_convoy_vps(0, 0, 0, (0.0, 0.0))
