"""The envelope on the untrusted boundary, and its counted size.

Two things are pinned here, next to the unit table in
``tests/net/test_messages.py``:

* every malformed envelope produces an ``error`` *reply* — never an
  exception, never a partial ingest — through each front door:
  ``ViewMapServer.handle``, ``ThreadedNetwork.send`` and a MSG record
  on a held ``StreamConnection`` (which must stay usable afterwards);
* envelope and onion overhead are constants, counted in bytes: a
  future re-inflation of the wire (hex, base64, per-hop padding) fails
  here deterministically instead of waiting for a benchmark run.
"""

from __future__ import annotations

import pytest

from repro.core.system import ViewMapSystem
from repro.net.concurrency import ThreadedNetwork
from repro.net.messages import decode_message, encode_message, pack_vp_batch_frame
from repro.net.onion import OnionNetwork
from repro.net.server import ViewMapServer
from repro.net.streaming import StreamingNetwork
from repro.net.transport import InMemoryNetwork
from tests.net.test_messages import MALFORMED_ENVELOPES
from tests.net.test_wire_frame import make_complete_vp

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
