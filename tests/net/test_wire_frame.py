"""Zero-decode ``upload_vp_batch`` frame path: parity and rejection.

Two properties pin the one batch encoding:

* **parity** — a batch uploaded as a frame and the same VPs handed to
  ``ViewMapSystem.ingest_vps`` as objects leave byte-identical store
  contents (ids, minutes, trusted flags, encoded bodies, and per-minute
  order) and report the same acks on both placements, memory and
  sqlite.  The wire is a pure transport,
  invisible to investigation reads.
* **rejection** — a malformed frame (truncated buffer, record count
  that disagrees with the bytes present, wrong body size, trusted
  claim, oversized batch), a request with no frame, and the retired
  ``vps`` block list are each refused with a clean error before a
  single record is ingested: no partial batches, ever.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbors import NeighborTable
from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.errors import NetworkError, ValidationError, WireFormatError
from repro.geo.geometry import Point
from repro.net.client import VehicleClient
from repro.net.messages import (
    MAX_VP_BATCH,
    decode_message,
    encode_message,
    pack_vp_batch_frame,
    unpack_vp_batch_frame,
)
from repro.net.onion import OnionNetwork
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.store.codec import (
    RECORD_OVERHEAD_BYTES,
    encode_vp,
    encode_vp_batch,
    iter_encoded_meta,
)
from repro.store.serving import QuerySpec
from tests.conftest import run_linked_minute
from tests.store.conftest import build_store

POOL_SIZE = 8


def make_complete_vp(seed: int) -> ViewProfile:
    """One upload-eligible (60-digest) VP on a seeded trajectory."""
    gen = VDGenerator(make_secret(seed))
    minute = seed % 3
    base = minute * 60.0
    for i in range(60):
        gen.tick(base + i + 1, Point(40.0 * seed + 2.0 * i, 120.0 * (seed % 5)), b"chunk")
    return build_view_profile(gen.digests, NeighborTable())


@pytest.fixture(scope="module")
def vp_pool() -> list[ViewProfile]:
    """Complete VPs are expensive to build; share one pool per module."""
    return [make_complete_vp(seed) for seed in range(1, POOL_SIZE + 1)]


def nan_vp_frame(vp: ViewProfile) -> bytes:
    """``vp`` as a one-record frame with NaN locations in digests 2-60,
    its sidecar box shrunk to the one finite position left."""
    frame = bytearray(pack_vp_batch_frame([vp]))
    base = 5 + RECORD_OVERHEAD_BYTES + 7  # frame + record head + blob head
    for j in range(1, 60):
        struct.pack_into(">2f", frame, base + j * 72 + 8, float("nan"), float("nan"))
    x, y = struct.unpack_from(">2f", frame, base + 8)
    struct.pack_into(">4d", frame, 5 + 1 + 4, x, y, x, y)
    return bytes(frame)


def store_contents(system: ViewMapSystem) -> dict:
    """Everything an investigation can observe, bodies as exact bytes."""
    contents: dict = {"minutes": system.database.minutes()}
    for minute in contents["minutes"]:
        contents[minute] = [
            (vp.vp_id, vp.minute, vp.trusted, encode_vp(vp))
            for vp in system.database.query(QuerySpec(minute=minute)).vps
        ]
    return contents


def upload_compositions(system: ViewMapSystem, pool, compositions) -> list:
    """Drive one server through a sequence of frame uploads; return acks."""
    net = InMemoryNetwork()
    server = ViewMapServer(system=system, network=net)
    acks = []
    for composition in compositions:
        batch = [pool[i] for i in composition]
        payload = encode_message("upload_vp_batch", session="s", frame=pack_vp_batch_frame(batch))
        reply = decode_message(server.handle(payload))
        # the ack is what the store wrote: one flag per record it stored
        assert sum(reply["accepted"]) == reply["inserted"]
        acks.append((reply["accepted"], reply["inserted"]))
    return acks


def ingest_compositions(system: ViewMapSystem, pool, compositions) -> list:
    """The same batches as objects through ``ingest_vps``; the acks it implies."""
    acks = []
    for composition in compositions:
        batch = [pool[i] for i in composition]
        seen = system.database.existing_ids([vp.vp_id for vp in batch])
        accepted = []
        for vp in batch:
            accepted.append(vp.vp_id not in seen)
            seen.add(vp.vp_id)
        acks.append((accepted, system.ingest_vps(batch)))
    return acks


#: several batches per example so cross-request duplicates are exercised
compositions_strategy = st.lists(
    st.lists(st.integers(0, POOL_SIZE - 1), min_size=1, max_size=5),
    min_size=1,
    max_size=3,
)


def assert_wire_parity(backend: str, pool, compositions) -> None:
    with ViewMapSystem(key_bits=512, seed=3, store=build_store(backend)) as twin:
        with ViewMapSystem(key_bits=512, seed=3, store=build_store(backend)) as wire:
            # the two entry points agree on every ack AND on the stored bytes
            assert ingest_compositions(twin, pool, compositions) == upload_compositions(
                wire, pool, compositions
            )
            assert store_contents(twin) == store_contents(wire)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@given(compositions=compositions_strategy)
@settings(max_examples=20, deadline=None)
def test_frame_and_legacy_paths_store_identical_bytes(backend, vp_pool, compositions):
    assert_wire_parity(backend, vp_pool, compositions)


def test_frame_upload_builds_no_vp_on_the_authority(vp_pool, monkeypatch):
    # zero-decode, exactly: into a store that keeps bytes, validation,
    # the duplicate rule and the write never construct a ViewProfile
    built: list[int] = []
    real_from_wire = ViewProfile.from_wire.__func__
    monkeypatch.setattr(
        ViewProfile,
        "from_wire",
        classmethod(lambda cls, *a, **kw: built.append(1) or real_from_wire(cls, *a, **kw)),
    )
    with ViewMapSystem(key_bits=512, seed=3, store=build_store("sqlite")) as system:
        acks = upload_compositions(system, vp_pool, [range(POOL_SIZE), [0, 1]])
        assert [inserted for _, inserted in acks] == [POOL_SIZE, 0]
        assert built == []
        # the probe is live: reading the VPs back builds each of them
        assert len(system.database.query(QuerySpec(minute=vp_pool[0].minute)).vps) == len(built) > 0


class TestMalformedFrames:
    """Every malformed frame is rejected whole — no partial ingest."""

    @pytest.fixture
    def stack(self):
        net = InMemoryNetwork()
        system = ViewMapSystem(key_bits=512, seed=4)
        server = ViewMapServer(system=system, network=net)
        return system, server

    def reject(self, system, server, frame: bytes) -> str:
        before = len(system.database)
        reply = decode_message(
            server.handle(encode_message("upload_vp_batch", session="s", frame=frame))
        )
        assert reply["kind"] == "error"
        assert len(system.database) == before, "partial ingest on a rejected frame"
        return reply["reason"]

    def test_frameless_and_block_list_requests_rejected(self, stack, vp_pool):
        # the batch has one encoding: no frame, a frame of the wrong
        # type, or the retired ``vps`` block list (alone or beside a
        # good frame) is an error reply with nothing stored
        system, server = stack
        blocks = [vp.digest_block() + vp.bloom.to_bytes() for vp in vp_pool[:2]]
        frame = pack_vp_batch_frame(vp_pool[:2])
        for fields in ({}, {"frame": 5}, {"vps": blocks}, {"vps": blocks, "frame": frame}):
            reply = decode_message(
                server.handle(encode_message("upload_vp_batch", session="s", **fields))
            )
            assert reply["kind"] == "error", fields
            assert len(system.database) == 0, fields

    def test_truncated_buffer(self, stack, vp_pool):
        system, server = stack
        frame = pack_vp_batch_frame([vp_pool[0], vp_pool[1]])
        for cut in (3, len(frame) // 2, len(frame) - 1):
            with pytest.raises(ValidationError):
                unpack_vp_batch_frame(frame[:cut])
            self.reject(system, server, frame[:cut])

    def test_record_count_mismatch(self, stack, vp_pool):
        system, server = stack
        frame = bytearray(pack_vp_batch_frame([vp_pool[0], vp_pool[1]]))
        # metadata claims three records, the body carries two
        frame[1:5] = (3).to_bytes(4, "big")
        with pytest.raises(ValidationError):
            unpack_vp_batch_frame(bytes(frame))
        self.reject(system, server, bytes(frame))
        # ...and claims one record, leaving a whole record trailing
        frame[1:5] = (1).to_bytes(4, "big")
        with pytest.raises(ValidationError):
            unpack_vp_batch_frame(bytes(frame))
        self.reject(system, server, bytes(frame))

    def test_partial_vp_body_rejected(self, stack):
        # a structurally valid frame whose record is not a complete
        # 60-digest VP: storable by the codec, not uploadable
        system, server = stack
        gen = VDGenerator(make_secret(99))
        for i in range(8):
            gen.tick(float(i + 1), Point(5.0 * i, 0.0), b"chunk")
        short_vp = build_view_profile(gen.digests, NeighborTable())
        frame = encode_vp_batch([short_vp])
        with pytest.raises(ValidationError, match="complete"):
            unpack_vp_batch_frame(frame)
        self.reject(system, server, frame)

    def test_trusted_claim_rejected(self, stack, vp_pool):
        system, server = stack
        vp = vp_pool[2]
        vp_trusted = ViewProfile(digests=vp.digests, bloom=vp.bloom, trusted=True)
        frame = encode_vp_batch([vp_trusted])
        with pytest.raises(ValidationError, match="trusted"):
            unpack_vp_batch_frame(frame)
        reason = self.reject(system, server, frame)
        assert "trusted" in reason

    def test_oversized_batch_rejected(self, stack, vp_pool):
        system, server = stack
        frame = pack_vp_batch_frame([vp_pool[0]])
        record = list(iter_encoded_meta(frame))[0]
        oversized = b"".join(
            [
                frame[0:1],
                (MAX_VP_BATCH + 1).to_bytes(4, "big"),
                frame[record[1] : record[2]] * (MAX_VP_BATCH + 1),
            ]
        )
        with pytest.raises(ValidationError, match="limit"):
            unpack_vp_batch_frame(oversized)
        self.reject(system, server, oversized)

    def test_garbage_body_rejected_despite_correct_length(self, stack, vp_pool):
        # a body of the right size but wrong blob version: storing it
        # would poison every later read of the minute, so the upload
        # must bounce — zero-decode cannot mean zero-validation
        system, server = stack
        frame = bytearray(pack_vp_batch_frame([vp_pool[0]]))
        from repro.store.codec import RECORD_OVERHEAD_BYTES

        body_start = 5 + RECORD_OVERHEAD_BYTES
        frame[body_start] = 99
        with pytest.raises(ValidationError, match="version"):
            unpack_vp_batch_frame(bytes(frame))
        self.reject(system, server, bytes(frame))

    def test_body_keyed_by_other_id_rejected(self, stack, vp_pool):
        # sidecar vp_id and body digests must agree: otherwise one valid
        # body could be registered under unlimited distinct identifiers
        system, server = stack
        frame = bytearray(pack_vp_batch_frame([vp_pool[0]]))
        id_offset = 5 + 1 + 4 + 32  # batch header + flags + minute + bbox
        frame[id_offset] ^= 0xFF
        with pytest.raises(ValidationError, match="vp_id"):
            unpack_vp_batch_frame(bytes(frame))
        self.reject(system, server, bytes(frame))

    def test_minute_mismatch_rejected(self, stack, vp_pool):
        # the sidecar minute indexes storage; it must match the body's
        # first digest time or investigations would never find the VP
        system, server = stack
        vp = vp_pool[0]
        frame = bytearray(pack_vp_batch_frame([vp]))
        minute_offset = 5 + 1  # batch header + flags
        frame[minute_offset : minute_offset + 4] = (vp.minute + 7).to_bytes(4, "big")
        with pytest.raises(ValidationError, match="minute"):
            unpack_vp_batch_frame(bytes(frame))
        self.reject(system, server, bytes(frame))

    def test_forged_bbox_rejected(self, stack, vp_pool):
        # the sidecar bbox feeds the spatial index and shard routing; a
        # box that disagrees with the body's packed locations would let
        # an uploader hide from (or pollute) area investigations
        import struct

        system, server = stack
        frame = bytearray(pack_vp_batch_frame([vp_pool[0]]))
        bbox_offset = 5 + 1 + 4  # batch header + flags + minute
        # shrink x_min so the box stays ordered but disagrees with the body
        forged = struct.unpack_from(">d", frame, bbox_offset)[0] - 5000.0
        struct.pack_into(">d", frame, bbox_offset, forged)
        with pytest.raises(ValidationError, match="locations"):
            unpack_vp_batch_frame(bytes(frame))
        self.reject(system, server, bytes(frame))

    def test_nonstandard_bloom_k_rejected(self, stack, vp_pool):
        # vehicles build their Blooms with k=8 (BloomFilter.k); a frame
        # declaring a smaller k would inflate false linkage, so the wire
        # form must refuse any other hash count
        system, server = stack
        frame = bytearray(pack_vp_batch_frame([vp_pool[0]]))
        from repro.store.codec import RECORD_OVERHEAD_BYTES

        k_offset = 5 + RECORD_OVERHEAD_BYTES + 1  # body blob version byte first
        frame[k_offset : k_offset + 2] = (1).to_bytes(2, "big")
        with pytest.raises(ValidationError, match="k=1"):
            unpack_vp_batch_frame(bytes(frame))
        self.reject(system, server, bytes(frame))

    def test_nan_digest_locations_rejected(self, stack, vp_pool):
        # min/max silently skip NaN, so a body whose digests carry NaN
        # locations with a sidecar bbox matching only the finite ones
        # must be caught per digest — stored NaN positions would crash
        # the memory grid and hide from every area investigation
        system, server = stack
        frame = nan_vp_frame(vp_pool[0])
        with pytest.raises(ValidationError, match="non-finite"):
            unpack_vp_batch_frame(frame)
        self.reject(system, server, frame)

    def test_non_finite_bbox_rejected(self, stack, vp_pool):
        # NaN/Inf bbox doubles feed shard routing; they must die at the
        # wire as a clean ValidationError, not escape as ValueError
        import struct

        system, server = stack
        frame = bytearray(pack_vp_batch_frame([vp_pool[0]]))
        bbox_offset = 5 + 1 + 4  # batch header + flags + minute
        frame[bbox_offset : bbox_offset + 8] = struct.pack(">d", float("nan"))
        with pytest.raises(ValidationError, match="bounding box"):
            unpack_vp_batch_frame(bytes(frame))
        self.reject(system, server, bytes(frame))

    def test_damaged_record_rejects_the_healthy_ones_too(self, stack, vp_pool):
        # first record intact, second truncated: the intact one must
        # NOT land — rejection is all-or-nothing per frame
        system, server = stack
        frame = pack_vp_batch_frame([vp_pool[0], vp_pool[1]])
        self.reject(system, server, frame[: len(frame) - 40])
        assert vp_pool[0].vp_id not in system.database

    def test_pack_frame_refuses_ineligible_vps(self, vp_pool):
        gen = VDGenerator(make_secret(7))
        gen.tick(1.0, Point(0.0, 0.0), b"chunk")
        partial = build_view_profile(gen.digests, NeighborTable())
        with pytest.raises(WireFormatError):
            pack_vp_batch_frame([partial])
        vp = vp_pool[0]
        trusted = ViewProfile(digests=vp.digests, bloom=vp.bloom, trusted=True)
        with pytest.raises(WireFormatError):
            pack_vp_batch_frame([trusted])


class TestFrameClient:
    def test_client_frame_codec_uploads_whole_minute(self):
        net = InMemoryNetwork()
        onion = OnionNetwork(network=net, n_relays=4, hops=2, seed=5)
        system = ViewMapSystem(key_bits=512, seed=6)
        server = ViewMapServer(system=system, network=net)
        a = VehicleAgent(vehicle_id=1, seed=2)
        b = VehicleAgent(vehicle_id=2, seed=3)
        res_a, _ = run_linked_minute(a, b)
        client = VehicleClient(agent=a, onion=onion)
        client.queue_minute_output(res_a.actual_vp, res_a.guard_vps)
        staged = len(client.pending_vps)
        assert client.upload_pending_batch() == staged
        assert len(system.database) == staged
        assert res_a.actual_vp.vp_id in system.database
        assert client.pending_vps == []
        # one frame request carried the whole minute
        batch_requests = [k for k, _ in server.session_log if k == "upload_vp_batch"]
        assert len(batch_requests) == 1

    def test_unknown_wire_codec_rejected(self):
        net = InMemoryNetwork()
        onion = OnionNetwork(network=net, n_relays=4, hops=2, seed=5)
        agent = VehicleAgent(vehicle_id=1, seed=2)
        assert VehicleClient(agent=agent, onion=onion, wire_codec="frame")
        for codec in ("blocks", "msgpack"):
            with pytest.raises(NetworkError):
                VehicleClient(agent=agent, onion=onion, wire_codec=codec)
