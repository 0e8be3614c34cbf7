"""Streaming ingest front-end: parser state machine, transport, hardening.

Three layers are pinned here:

* :class:`~repro.net.messages.FrameParser` — the incremental wire state
  machine: records re-assemble identically whatever the chunking, every
  protocol violation (bad magic, unknown kind, oversized declared
  length) is a clean :class:`ValidationError` raised *before* the
  payload arrives, and emitted payload views stay valid after later
  feeds (each record owns its buffer).
* :class:`~repro.net.streaming.StreamingNetwork` — in-memory modeled
  connections: acks match the threaded path, duplicates are rejected
  across requests, malformed frames never partially ingest, control
  messages and the ``send`` fabric contract work over the same socket.
* hardening — slow-loris peers and over-cap backlogs are shed with a
  clean error reply plus a ``server.upload.shed`` count, and the tier-1
  TCP smoke test proves a real socket leaves byte-identical store
  contents versus the threaded buffer-whole transport.
"""

from __future__ import annotations

import socket

import pytest

from repro.core.system import ViewMapSystem
from repro.errors import NetworkError, ValidationError
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.net.messages import (
    MAX_STREAM_PAYLOAD_BYTES,
    STREAM_KIND_FRAME,
    STREAM_KIND_MSG,
    STREAM_MAGIC,
    FrameParser,
    decode_message,
    encode_message,
    pack_stream_record,
    pack_vp_batch_frame,
    peek_frame_minute,
)
from repro.net.streaming import StreamingNetwork
from repro.obs.metrics import counter_value
from tests.net.test_wire_frame import make_complete_vp, store_contents


@pytest.fixture(scope="module")
def vp_pool():
    return [make_complete_vp(seed) for seed in range(1, 5)]


# ---------------------------------------------------------------------------
# FrameParser: the incremental wire state machine
# ---------------------------------------------------------------------------


class TestFrameParser:
    def stream(self, *records: tuple[int, bytes]) -> bytes:
        return STREAM_MAGIC + b"".join(pack_stream_record(k, p) for k, p in records)

    def test_byte_at_a_time_reassembly(self):
        wire = self.stream(
            (STREAM_KIND_MSG, b"hello"), (STREAM_KIND_FRAME, bytes(range(100)))
        )
        parser = FrameParser()
        records = []
        for i in range(len(wire)):
            records.extend(parser.feed(wire[i : i + 1]))
        assert [(k, bytes(p)) for k, p in records] == [
            (STREAM_KIND_MSG, b"hello"),
            (STREAM_KIND_FRAME, bytes(range(100))),
        ]
        assert parser.pending_bytes == 0
        assert not parser.mid_record

    def test_single_chunk_multi_record(self):
        wire = self.stream((STREAM_KIND_MSG, b"a"), (STREAM_KIND_MSG, b"bb"))
        records = FrameParser().feed(wire)
        assert [bytes(p) for _, p in records] == [b"a", b"bb"]

    def test_payloads_are_readonly_views(self):
        [(_, payload)] = FrameParser().feed(self.stream((STREAM_KIND_FRAME, b"body")))
        assert isinstance(payload, memoryview)
        assert payload.readonly

    def test_payload_views_survive_later_feeds(self):
        # each record owns its buffer: a span handed to the store (or a
        # worker pipe) must not be clobbered by the next record
        parser = FrameParser()
        [(_, first)] = parser.feed(self.stream((STREAM_KIND_FRAME, b"first-body")))
        parser.feed(pack_stream_record(STREAM_KIND_FRAME, b"X" * 64))
        assert bytes(first) == b"first-body"

    def test_zero_length_payload(self):
        [(kind, payload)] = FrameParser().feed(self.stream((STREAM_KIND_MSG, b"")))
        assert kind == STREAM_KIND_MSG
        assert bytes(payload) == b""

    def test_bad_magic_rejected(self):
        with pytest.raises(ValidationError, match="magic"):
            FrameParser().feed(b"XVMS" + b"\x01\x00\x00\x00\x00")

    def test_unknown_kind_rejected(self):
        wire = STREAM_MAGIC + bytes([0x7F]) + (0).to_bytes(4, "big")
        with pytest.raises(ValidationError, match="unknown stream record kind"):
            FrameParser().feed(wire)

    def test_oversized_length_rejected_before_payload(self):
        # the header alone is enough to refuse: no buffer is allocated,
        # no payload byte need ever arrive
        parser = FrameParser(max_payload_bytes=1024)
        header = bytes([STREAM_KIND_FRAME]) + (1025).to_bytes(4, "big")
        with pytest.raises(ValidationError, match="bound"):
            parser.feed(STREAM_MAGIC + header)

    def test_mid_record_and_pending_bytes_tracking(self):
        parser = FrameParser()
        parser.feed(STREAM_MAGIC)
        assert not parser.mid_record
        parser.feed(pack_stream_record(STREAM_KIND_FRAME, b"0123456789")[:9])
        assert parser.mid_record
        assert parser.pending_bytes == 4  # 4 of 10 payload bytes buffered
        parser.feed(b"456789")
        assert not parser.mid_record
        assert parser.pending_bytes == 0


class TestPeekFrameMinute:
    def test_reads_first_record_minute(self, vp_pool):
        frame = pack_vp_batch_frame([vp_pool[1]])
        assert peek_frame_minute(frame) == vp_pool[1].minute
        assert peek_frame_minute(memoryview(frame)) == vp_pool[1].minute

    def test_short_frame_defaults_to_zero(self):
        assert peek_frame_minute(b"\x01\x00\x00") == 0


# ---------------------------------------------------------------------------
# StreamingNetwork: modeled in-memory connections
# ---------------------------------------------------------------------------


def threaded_contents(vp_pool, frames: list[bytes]) -> dict:
    """Store contents after uploading ``frames`` via the threaded path."""
    with ViewMapSystem(key_bits=512, seed=3) as system:
        with ThreadedNetwork(workers=2) as net:
            server = ConcurrentViewMapServer(system=system, network=net)
            for frame in frames:
                reply = decode_message(
                    net.send(
                        "vehicle",
                        server.address,
                        encode_message("upload_vp_batch", session="s", frame=frame),
                    )
                )
                assert reply["kind"] == "batch_ack"
            return store_contents(system)


class TestStreamingTransport:
    @pytest.fixture
    def stack(self):
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with StreamingNetwork(workers=2) as net:
                server = ConcurrentViewMapServer(system=system, network=net)
                yield system, net, server

    def test_upload_ack_and_byte_identical_store(self, stack, vp_pool):
        system, net, server = stack
        frame = pack_vp_batch_frame(vp_pool[:3])
        conn = net.connect(server.address)
        reply = conn.upload_frame(frame)
        assert reply["kind"] == "batch_ack"
        assert reply["accepted"] == [True, True, True]
        assert reply["inserted"] == 3
        assert store_contents(system) == threaded_contents(vp_pool, [frame])

    def test_duplicates_rejected_across_requests(self, stack, vp_pool):
        system, net, server = stack
        frame = pack_vp_batch_frame([vp_pool[0]])
        conn = net.connect(server.address)
        assert conn.upload_frame(frame)["inserted"] == 1
        dup = conn.upload_frame(frame)
        assert dup["accepted"] == [False]
        assert dup["inserted"] == 0

    def test_pipelined_uploads_resolve_in_order(self, stack, vp_pool):
        system, net, server = stack
        conn = net.connect(server.address)
        futures = [
            conn.upload_frame_async(pack_vp_batch_frame([vp])) for vp in vp_pool
        ]
        replies = [decode_message(f.result(30.0)) for f in futures]
        assert all(r["kind"] == "batch_ack" and r["inserted"] == 1 for r in replies)
        assert len(system.database) == len(vp_pool)

    def test_malformed_frame_rejected_whole(self, stack, vp_pool):
        system, net, server = stack
        frame = pack_vp_batch_frame(vp_pool[:2])
        conn = net.connect(server.address)
        reply = conn.upload_frame(frame[: len(frame) // 2])
        assert reply["kind"] == "error"
        assert len(system.database) == 0, "partial ingest on a rejected frame"

    def test_control_message_roundtrip(self, stack):
        _, net, server = stack
        conn = net.connect(server.address)
        reply = conn.request("list_solicitations", session="s")
        assert reply["kind"] == "solicitations"

    def test_send_contract_compat(self, stack):
        # serial-fabric callers (privacy probes) work unchanged
        _, net, server = stack
        reply = decode_message(
            net.send(
                "probe",
                server.address,
                encode_message("list_solicitations", session="s"),
            )
        )
        assert reply["kind"] == "solicitations"

    def test_oversize_reply_is_an_error_and_the_connection_survives(self, stack):
        # a query_view over a crowded minute builds a reply larger than
        # one stream record may carry; that used to kill the session
        # task (the client hung to its timeout) — now the slot is
        # answered with an error naming the bound and the connection,
        # with its in-order reply matching, stays alive
        system, net, server = stack
        crowd = [make_complete_vp(3 * k) for k in range(1, 259)]  # all minute 0
        assert {vp.minute for vp in crowd} == {0}
        conn = net.connect(server.address)
        for start in (0, 256):
            ack = conn.upload_frame(pack_vp_batch_frame(crowd[start : start + 256]))
            assert ack["kind"] == "batch_ack"
        sweep = encode_message("query_view", session="s", minute=0, encoded=True)
        listing = encode_message("list_solicitations", session="s")
        first, second, third = (
            conn._submit(STREAM_KIND_MSG, payload) for payload in (sweep, listing, sweep)
        )
        reply = decode_message(first.result(5.0))
        assert reply["kind"] == "error"
        assert f"{MAX_STREAM_PAYLOAD_BYTES}-byte bound" in reply["reason"]
        assert decode_message(second.result(5.0))["kind"] == "solicitations"
        assert decode_message(third.result(5.0))["kind"] == "error"
        assert counter_value(net.metrics.snapshot(), "stream.reply.oversize") == 2
        assert not conn.closed
        # a read that fits still comes back whole on the same connection
        narrow = conn.request(
            "query_view", session="s", minute=0, encoded=True, area=[0, 0, 5000, 1]
        )
        assert narrow["kind"] == "view" and 0 < narrow["n"] < len(crowd)

    def test_connect_unknown_address(self, stack):
        _, net, _ = stack
        with pytest.raises(NetworkError, match="no endpoint"):
            net.connect("nowhere")

    def test_close_fails_pending_uploads(self, stack, vp_pool):
        _, net, server = stack
        conn = net.connect(server.address)
        conn.close()
        with pytest.raises(NetworkError):
            conn.upload_frame(pack_vp_batch_frame([vp_pool[0]]))


# ---------------------------------------------------------------------------
# Hardening: slow-loris deadlines, backlog caps
# ---------------------------------------------------------------------------


def drain_records(sock: socket.socket, parser: FrameParser, timeout: float = 10.0):
    """Read until EOF (or timeout), returning every parsed record."""
    sock.settimeout(timeout)
    records = []
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                break
            records.extend(parser.feed(data))
    except TimeoutError:
        pass
    return records


class TestHardening:
    def test_slow_loris_connection_is_shed(self, vp_pool):
        # a peer that starts a record and stalls is disconnected with a
        # clean error once the read deadline lapses — satellite of the
        # untrusted-bytes front door
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with StreamingNetwork(workers=1, read_deadline_s=0.05) as net:
                server = ConcurrentViewMapServer(system=system, network=net)
                host, port = net.listen(server.address)
                with socket.create_connection((host, port), timeout=10.0) as sock:
                    sock.sendall(STREAM_MAGIC)
                    # three header bytes, then silence: mid-record forever
                    sock.sendall(pack_stream_record(STREAM_KIND_MSG, b"x")[:3])
                    records = drain_records(sock, FrameParser())
                assert records, "expected an error reply before the hang-up"
                reply = decode_message(bytes(records[-1][1]))
                assert reply["kind"] == "error"
                assert "read deadline" in reply["reason"]
                snap = net.metrics.snapshot()
                assert counter_value(snap, "server.upload.shed") >= 1
                assert len(system.database) == 0

    def test_backlog_over_cap_is_shed(self, vp_pool):
        # one VP record (~4.6 KiB) blows a 1 KiB pending-bytes bound:
        # the connection is refused before any ingest work happens
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with StreamingNetwork(workers=1, max_pending_bytes=1024) as net:
                server = ConcurrentViewMapServer(system=system, network=net)
                conn = net.connect(server.address)
                reply = conn.upload_frame(pack_vp_batch_frame([vp_pool[0]]))
                assert reply["kind"] == "error"
                assert "max-pending" in reply["reason"]
                assert counter_value(net.metrics.snapshot(), "server.upload.shed") == 1
                assert len(system.database) == 0

    def test_tcp_bad_magic_is_shed(self):
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with StreamingNetwork(workers=1) as net:
                server = ConcurrentViewMapServer(system=system, network=net)
                host, port = net.listen(server.address)
                with socket.create_connection((host, port), timeout=10.0) as sock:
                    sock.sendall(b"HTTP/1.1 GET /")
                    records = drain_records(sock, FrameParser())
                assert records
                reply = decode_message(bytes(records[-1][1]))
                assert reply["kind"] == "error"
                assert "magic" in reply["reason"]
                assert counter_value(net.metrics.snapshot(), "server.upload.shed") == 1


# ---------------------------------------------------------------------------
# Tier-1 smoke: real TCP, one frame, byte-identical store vs threaded
# ---------------------------------------------------------------------------


class TestTCPSmoke:
    def test_stream_one_frame_over_tcp_matches_threaded(self, vp_pool):
        frame = pack_vp_batch_frame(vp_pool[:2])
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with StreamingNetwork(workers=2) as net:
                server = ConcurrentViewMapServer(system=system, network=net)
                host, port = net.listen(server.address)
                parser = FrameParser()
                with socket.create_connection((host, port), timeout=10.0) as sock:
                    sock.settimeout(10.0)
                    sock.sendall(STREAM_MAGIC)
                    sock.sendall(pack_stream_record(STREAM_KIND_FRAME, frame))
                    records = []
                    while not records:
                        data = sock.recv(65536)
                        assert data, "server hung up before replying"
                        records.extend(parser.feed(data))
                reply = decode_message(bytes(records[0][1]))
                assert reply["kind"] == "batch_ack"
                assert reply["inserted"] == 2
                streamed = store_contents(system)
        assert streamed == threaded_contents(vp_pool, [frame])

    def test_streamed_frames_logged_without_session(self, vp_pool):
        # privacy probes read the session log: streamed frames carry no
        # session id and land under their own kind
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with StreamingNetwork(workers=1) as net:
                server = ConcurrentViewMapServer(system=system, network=net)
                conn = net.connect(server.address)
                conn.upload_frame(pack_vp_batch_frame([vp_pool[0]]))
                assert ("upload_stream", "") in server.session_log
