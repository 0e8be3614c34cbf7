"""Tests for the constant-memory streaming load generator."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import ViewMapSystem
from repro.core.viewprofile import ViewProfile
from repro.errors import SimulationError, ValidationError, WireFormatError
from repro.net.messages import (
    MAX_VP_BATCH,
    decode_message,
    encode_message,
    pack_vp_batch_frame,
)
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.obs.metrics import Histogram
from repro.sim import iter_minute_frames, iter_minute_vps
from repro.sim.stream import stream_frame, stream_vp
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


def packed_per_vp(seed: int, minute: int, vehicles: range, area_m: float) -> bytes:
    """A frame as it was built before frames were written: one VP
    object per vehicle, packed as a batch."""
    return pack_vp_batch_frame([stream_vp(seed, minute, v, area_m) for v in vehicles])


def raised(build) -> tuple[type, str] | None:
    """The class and message ``build()`` raises, or None."""
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestFramesAreWrittenNotPacked:
    """A frame is written straight into its records; it equals packing
    the ``stream_vp`` VPs it carries, byte for byte, and fails as that would."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        minutes=st.integers(1, 2),
        n_vehicles=st.integers(1, 40),
        batch_vps=st.sampled_from([1, 7, 16, MAX_VP_BATCH]),
        area_m=st.one_of(st.floats(-1e38, 1e38, allow_nan=False), st.sampled_from([0.0, 2000.0])),
    )
    def test_every_frame_equals_packing_its_stream_vps(
        self, seed, minutes, n_vehicles, batch_vps, area_m
    ):
        frames = iter_minute_frames(n_vehicles, minutes, seed, area_m, batch_vps)
        carried = {minute: 0 for minute in range(minutes)}
        for mf in frames:
            first = carried[mf.minute]
            vehicles = range(first, first + mf.n_vps)
            assert mf.frame == packed_per_vp(seed, mf.minute, vehicles, area_m)
            carried[mf.minute] += mf.n_vps
        # every vehicle of every minute, the partial last batch included
        assert carried == {minute: n_vehicles for minute in range(minutes)}

    def test_the_frame_path_builds_no_view_profile(self, monkeypatch):
        built = []
        init = ViewProfile.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ViewProfile, "__init__", counting)
        frames = list(iter_minute_frames(20, 2, seed=3, batch_vps=7))
        assert sum(mf.n_vps for mf in frames) == 40
        assert built == []
        stream_vp(3, 0, 0, 2000.0)  # the object path is still counted
        assert built == [1]

    @pytest.mark.parametrize(
        "minute, area_m, error",
        [
            (0, 1e39, OverflowError),  # a position past float32
            (0, float("nan"), ValidationError),  # a digest rule
            (2**32, 2000.0, WireFormatError),  # a minute past the 4-byte field
            (2**40, 2000.0, WireFormatError),
            (-1, 2000.0, WireFormatError),
        ],
    )
    def test_a_frame_is_refused_as_packing_its_vps_is(self, minute, area_m, error):
        vehicles = range(16)
        expected = raised(lambda: packed_per_vp(5, minute, vehicles, area_m))
        assert expected is not None and expected[0] is error
        assert raised(lambda: stream_frame(5, minute, vehicles, area_m)) == expected

    def test_a_position_past_float32_yields_no_partial_frame(self):
        message = "float too large to pack with f format"
        assert raised(lambda: stream_vp(2, 0, 0, 1e39)) == (OverflowError, message)
        yielded = []
        with pytest.raises(OverflowError, match=message):
            for mf in iter_minute_frames(16, 1, seed=2, area_m=1e39):
                yielded.append(mf)
        assert yielded == []

    def test_the_last_u32_minute_is_written(self):
        minute = 2**32 - 1
        frame = stream_frame(5, minute, range(3), 2000.0)
        assert frame == packed_per_vp(5, minute, range(3), 2000.0)


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
