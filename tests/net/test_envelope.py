"""The envelope on the untrusted boundary, and its counted size.

Three things are pinned here, next to the unit table in
``tests/net/test_messages.py``:

* every malformed envelope produces an ``error`` *reply* — never an
  exception, never a partial ingest — through each front door:
  ``ViewMapServer.handle``, ``ThreadedNetwork.send`` and a MSG record
  on a held ``StreamConnection`` (which must stay usable afterwards);
* so does every well-formed envelope whose *fields* are missing or of
  the wrong type, for each registered kind — no request can make a
  handler raise, and a handler that raises anyway is answered in its
  slot instead of stranding the connection;
* envelope and onion overhead are constants, counted in bytes: a
  future re-inflation of the wire (hex, base64, per-hop padding) fails
  here deterministically instead of waiting for a benchmark run.
"""

from __future__ import annotations

import struct
import threading

import pytest

from repro.constants import VD_MESSAGE_BYTES
from repro.core.system import ViewMapSystem
from repro.core.viewdigest import PACKED_FIELD
from repro.core.viewprofile import ViewProfile
from repro.errors import ValidationError
from repro.geo.geometry import Rect
from repro.net.concurrency import ThreadedNetwork
from repro.net.messages import (
    decode_message,
    encode_message,
    pack_vp_batch_frame,
)
from repro.net.onion import OnionNetwork
from repro.net.server import ViewMapServer
from repro.net.streaming import StreamingNetwork
from repro.net.transport import InMemoryNetwork
from repro.obs.metrics import counter_value
from repro.store import make_store
from repro.store.codec import RECORD_OVERHEAD_BYTES, decode_vp_batch
from repro.store.serving import QuerySpec
from tests.net.test_messages import MALFORMED_ENVELOPES
from tests.net.test_wire_frame import make_complete_vp, nan_vp_frame

#: envelope bytes allowed on top of the binary payload, whatever its size
MAX_ENVELOPE_OVERHEAD = 128


@pytest.fixture(scope="module")
def vp_pool():
    return [make_complete_vp(seed) for seed in range(1, 5)]


@pytest.fixture(scope="module")
def malformed(vp_pool):
    """The unit table plus damaged forms of a genuine upload."""
    upload = encode_message(
        "upload_vp_batch", session="s", frame=pack_vp_batch_frame(vp_pool[:2])
    )
    return {
        **MALFORMED_ENVELOPES,
        "upload cut one byte short": upload[:-1],
        "upload cut mid-frame": upload[: len(upload) // 2],
        "upload with a trailing byte": upload + b"\x00",
    }


def assert_error_reply(raw: bytes, case: str) -> None:
    reply = decode_message(raw)
    assert reply["kind"] == "error", case
    assert reply["reason"], case


class TestMalformedEnvelopesGetErrorReplies:
    def test_through_server_handle(self, malformed):
        with ViewMapSystem(key_bits=512, seed=3) as system:
            server = ViewMapServer(system=system, network=InMemoryNetwork())
            for case, payload in malformed.items():
                assert_error_reply(server.handle(payload), case)
            assert len(system.database) == 0, "partial ingest on a rejected envelope"
            assert server.session_log == [], "a rejected envelope reached dispatch"

    def test_through_threaded_network(self, malformed):
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with ThreadedNetwork(workers=2) as net:
                server = ViewMapServer(system=system, network=net)
                for case, payload in malformed.items():
                    assert_error_reply(net.send("vehicle", server.address, payload), case)
                assert len(system.database) == 0

    def test_through_stream_connection(self, malformed, vp_pool):
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with StreamingNetwork(workers=2) as net:
                server = ViewMapServer(system=system, network=net)
                conn = net.connect(server.address)
                for case, payload in malformed.items():
                    assert_error_reply(conn.request_raw(payload, timeout=10.0), case)
                assert len(system.database) == 0
                # the same held connection still serves in order
                assert conn.request("list_solicitations", session="s")["kind"] == (
                    "solicitations"
                )
                assert conn.upload_frame(pack_vp_batch_frame(vp_pool[:2]))["inserted"] == 2


#: one fieldless and one mistyped request per kind that reads fields;
#: each mistyped value is one the handler's own code would raise a
#: non-Repro exception on (unhashable, not iterable, not an int)
MALFORMED_REQUESTS = {
    "upload_vp_batch fieldless": ("upload_vp_batch", {}),
    "upload_vp_batch frame is an int": ("upload_vp_batch", {"frame": 5}),
    "query_view fieldless": ("query_view", {}),
    "query_view minute overflows": ("query_view", {"minute": 1e400}),
    "upload_video fieldless": ("upload_video", {}),
    "upload_video ids are lists": ("upload_video", {"vp_id": [1], "chunks": [5]}),
    "claim_reward fieldless": ("claim_reward", {}),
    "claim_reward vp_id is a list": ("claim_reward", {"vp_id": [1], "secret": b"q"}),
    "sign_blinded fieldless": ("sign_blinded", {}),
    "sign_blinded blinded is not decimal": (
        "sign_blinded",
        {"vp_id": b"i" * 16, "secret": b"q" * 8, "blinded": ["zz"]},
    ),
}

#: kinds that read nothing from the request, so have no malformed form
FIELDLESS_KINDS = {"list_solicitations", "list_rewards", "public_key"}


#: the digest whose position the wide forms move (any but the first, so
#: the initial location and the claimed minute stay honest)
_MOVED = VD_MESSAGE_BYTES + PACKED_FIELD["location"].start


def wide_digest_block(vp, span_m: float = 1e12) -> bytes:
    """``vp``'s digest block with digest 2 moved ``span_m`` east: finite
    float32 positions no minute of driving connects."""
    block = bytearray(vp.digest_block())
    struct.pack_into(">f", block, _MOVED, span_m)
    return bytes(block)


def wide_vp_frame(vp, span_m: float = 1e12) -> bytes:
    """The same VP as a one-record frame, its sidecar box made to match
    (so the extent is the only thing wrong with it)."""
    frame = bytearray(pack_vp_batch_frame([vp]))
    record = 5  # past the frame's version + count header
    moved = record + RECORD_OVERHEAD_BYTES + 7 + _MOVED  # 7: the blob header
    struct.pack_into(">f", frame, moved, span_m)
    (x_max,) = struct.unpack_from(">f", frame, moved)  # as float32 rounds it
    struct.pack_into(">d", frame, record + 5 + 16, x_max)  # flags, minute, x_min, y_min
    return bytes(frame)


RETIRED_UPLOAD_VP = "upload_vp is an unknown kind"


@pytest.fixture(scope="module")
def malformed_requests(vp_pool):
    table = {
        case: encode_message(kind, session="s", **fields)
        for case, (kind, fields) in MALFORMED_REQUESTS.items()
    }
    # the retired single-VP kind, carrying the block it used to store
    table[RETIRED_UPLOAD_VP] = encode_message(
        "upload_vp",
        session="s",
        vp=vp_pool[0].digest_block() + vp_pool[0].bloom.to_bytes(),
    )
    table["upload_vp_batch with NaN locations"] = encode_message(
        "upload_vp_batch", session="s", frame=nan_vp_frame(vp_pool[0])
    )
    table["upload_vp_batch spanning 1e12 m"] = encode_message(
        "upload_vp_batch", session="s", frame=wide_vp_frame(vp_pool[0])
    )
    return table


class TestMalformedRequestsGetErrorReplies:
    def test_table_covers_every_registered_kind(self):
        with ViewMapSystem(key_bits=512, seed=3) as system:
            server = ViewMapServer(system=system, network=InMemoryNetwork())
            covered = {kind for kind, _ in MALFORMED_REQUESTS.values()}
            assert covered | FIELDLESS_KINDS == set(server._handlers)

    def test_through_server_handle(self, malformed_requests):
        with ViewMapSystem(key_bits=512, seed=3) as system:
            server = ViewMapServer(system=system, network=InMemoryNetwork())
            for case, payload in malformed_requests.items():
                assert_error_reply(server.handle(payload), case)
            assert len(system.database) == 0, "partial ingest on a rejected request"
            retired = decode_message(server.handle(malformed_requests[RETIRED_UPLOAD_VP]))
            assert retired["reason"] == "unknown kind: upload_vp"

    def test_through_threaded_network(self, malformed_requests):
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with ThreadedNetwork(workers=2) as net:
                server = ViewMapServer(system=system, network=net)
                for case, payload in malformed_requests.items():
                    assert_error_reply(net.send("vehicle", server.address, payload), case)
                assert len(system.database) == 0

    def test_through_stream_connection(self, malformed_requests):
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with StreamingNetwork(workers=2) as net:
                server = ViewMapServer(system=system, network=net)
                conn = net.connect(server.address)
                for case, payload in malformed_requests.items():
                    assert_error_reply(conn.request_raw(payload, timeout=10.0), case)
                    # the held connection survives each one, in order
                    reply = conn.request("list_solicitations", timeout=10.0, session="s")
                    assert reply["kind"] == "solicitations", case
                assert len(system.database) == 0
                assert counter_value(net.metrics.snapshot(), "stream.handler.crashed") == 0

    def test_nan_vp_frame_leaves_minute_and_id_usable(self, vp_pool):
        # a refused NaN VP is not half-stored, does not break the
        # minute's area queries, and does not lock the honest owner's
        # id out
        vp = vp_pool[0]
        with ViewMapSystem(key_bits=512, seed=3) as system:
            server = ViewMapServer(system=system, network=InMemoryNetwork())
            poisoned = encode_message("upload_vp_batch", session="s", frame=nan_vp_frame(vp))
            assert_error_reply(server.handle(poisoned), "NaN VP")
            assert len(system.database) == 0
            area = Rect(-1e6, -1e6, 1e6, 1e6)
            assert system.database.query(QuerySpec(minute=vp.minute, area=area)).vps == []
            honest = encode_message(
                "upload_vp_batch", session="s", frame=pack_vp_batch_frame([vp])
            )
            assert decode_message(server.handle(honest)) == {
                "kind": "batch_ack",
                "accepted": [True],
                "inserted": 1,
            }
            assert system.database.query(QuerySpec(minute=vp.minute, area=area)).n == 1

    def test_wide_vp_is_refused_with_one_message(self, vp_pool):
        # the extent bound lives where the NaN rule does, so an uploaded
        # frame, a VP built from its packed block and a store-side decode
        # all say the same
        vp = vp_pool[0]
        bloom = vp.bloom.to_bytes()
        with ViewMapSystem(key_bits=512, seed=3) as system:
            server = ViewMapServer(system=system, network=InMemoryNetwork())
            frame = wide_vp_frame(vp)
            upload = encode_message("upload_vp_batch", session="s", frame=frame)
            reasons = {decode_message(server.handle(upload))["reason"].split(": ")[-1]}
            for build, wide in (
                (ViewProfile.from_wire, (wide_digest_block(vp), bloom)),
                (decode_vp_batch, (frame,)),
            ):
                with pytest.raises(ValidationError) as refused:
                    build(*wide)
                reasons.add(str(refused.value))
            assert reasons == {"VP positions span more than 10000 m along one axis"}
            # a minute of driving at the bound's edge is still a VP
            edge = ViewProfile.from_wire(wide_digest_block(vp, span_m=9_000.0), bloom)
            assert edge.vp_id == vp.vp_id

    def test_crashing_handler_is_answered_in_its_slot(self):
        # replies on a held connection are matched by position: a
        # handler that raises must still fill its slot, or this request
        # and every later one on the connection would time out
        def flaky(payload: bytes) -> bytes:
            if decode_message(payload)["kind"] == "boom":
                raise RuntimeError("handler bug")
            return encode_message("pong")

        with StreamingNetwork(workers=2) as net:
            net.register("flaky", flaky)
            conn = net.connect("flaky")
            assert conn.request("boom", timeout=10.0)["kind"] == "error"
            assert conn.request("ping", timeout=10.0)["kind"] == "pong"
            assert counter_value(net.metrics.snapshot(), "stream.handler.crashed") == 1


def within(seconds: float, call, *args):
    """``call(*args)``, failing instead of hanging when it wedges."""
    done: list = []
    worker = threading.Thread(target=lambda: done.append(call(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert done, f"{getattr(call, '__name__', call)} still running after {seconds} s"
    return done[0]


class TestUnboundedGeometryDoesNotWedge:
    """Two requests whose geometry made a store walk ~1e9 grid cells
    under its lock: each is answered (or refused) at once, and the
    server keeps serving."""

    WIDE_AREA = [-1e7, -1e7, 1e7, 1e7]

    def wide_query(self, vp) -> bytes:
        return encode_message("query_view", session="s", minute=vp.minute, area=self.WIDE_AREA)

    def test_wide_query_rectangle_through_server_handle(self, vp_pool):
        vp = vp_pool[0]
        with ViewMapSystem(key_bits=512, seed=3) as system:  # the memory backend
            server = ViewMapServer(system=system, network=InMemoryNetwork())
            system.database.insert(vp)
            reply = decode_message(within(1.0, server.handle, self.wide_query(vp)))
            assert (reply["kind"], reply["n"]) == ("view", 1)

    def test_wide_query_rectangle_over_a_held_connection(self, vp_pool):
        vp = vp_pool[0]
        with ViewMapSystem(key_bits=512, seed=3) as system:
            with StreamingNetwork(workers=2) as net:
                server = ViewMapServer(system=system, network=net)
                conn = net.connect(server.address)
                assert conn.upload_frame(pack_vp_batch_frame([vp]))["inserted"] == 1
                reply = decode_message(conn.request_raw(self.wide_query(vp), timeout=1.0))
                assert (reply["kind"], reply["n"]) == ("view", 1)
                after = conn.request("list_solicitations", timeout=1.0, session="s")
                assert after["kind"] == "solicitations"

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_wide_vp_does_not_hang_ingest_on_warm_tiles(self, vp_pool, backend):
        honest, vp = vp_pool[0], vp_pool[3]  # two VPs of one minute
        store = make_store(backend)
        with ViewMapSystem(key_bits=512, seed=3, store=store) as system:
            server = ViewMapServer(system=system, network=InMemoryNetwork())
            system.database.insert(honest)
            store.coverage_tiles(honest.minute)  # warm: writes now apply tile deltas
            assert vp.minute == honest.minute
            upload = encode_message("upload_vp_batch", session="s", frame=wide_vp_frame(vp))
            assert_error_reply(within(1.0, server.handle, upload), backend)
            assert len(store) == 1
            honest_upload = encode_message(
                "upload_vp_batch", session="s", frame=pack_vp_batch_frame([vp])
            )
            assert decode_message(server.handle(honest_upload))["inserted"] == 1


class TestCountedOverhead:
    """Counts, not wall-clock ratios: the wire cannot quietly re-inflate."""

    @pytest.mark.parametrize("n_vps", [1, 4, 256])
    def test_envelope_overhead_is_constant_in_payload(self, vp_pool, n_vps):
        frame = pack_vp_batch_frame((vp_pool * 64)[:n_vps])
        upload = encode_message("upload_vp_batch", session="0123456789abcdef", frame=frame)
        view = encode_message("view", frame=frame, n=n_vps)
        assert 0 < len(upload) - len(frame) <= MAX_ENVELOPE_OVERHEAD
        assert 0 < len(view) - len(frame) <= MAX_ENVELOPE_OVERHEAD
        assert decode_message(upload)["frame"] == frame

    def test_overhead_does_not_depend_on_payload_size(self):
        small, large = bytes(10_000), bytes(1_000_000)
        overhead = [
            len(encode_message("upload_vp_batch", session="s", frame=f)) - len(f)
            for f in (small, large)
        ]
        # only the decimal length in the marker may grow
        assert overhead[1] - overhead[0] == len("1000000") - len("10000")

    @pytest.mark.parametrize("size", [0, 1, 4_710, 1_200_000])
    def test_onion_wrap_adds_exact_per_hop_framing(self, size):
        onion = OnionNetwork(network=InMemoryNetwork(), n_relays=6, hops=3, seed=1)
        circuit = onion.build_circuit()
        destination = "authority"
        payload = bytes(size)
        next_hops = [relay.address for relay in circuit.relays[1:]] + [destination]
        # per hop: two length-prefixed parts inside the layer (next hop,
        # inner) and two outside it (nonce, ciphertext)
        framing = sum(
            4 + len(hop.encode()) + 4 + 4 + len(circuit.nonce) + 4 for hop in next_hops
        )
        assert len(circuit.wrap(destination, payload)) - size == framing
