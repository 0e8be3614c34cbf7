"""Tests for the ``query_view`` wire message: decode-free span serving.

The read half of the zero-decode wire: the server replies with one
codec batch frame of stored spans, and the client decodes.  The reply
must carry the exact VPs ``database.query(spec).vps`` holds, its frame
must be byte-identical to re-encoding that decoded selection — the
acceptance criterion the backend parity suite asserts store-side,
checked here end-to-end over the protocol — and nothing a request says
(an ``encoded`` field included) selects another shape.
"""

import pytest

from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.errors import NetworkError
from repro.geo.geometry import Rect
from repro.net.client import VehicleClient
from repro.net.messages import decode_message, encode_message
from repro.net.onion import OnionNetwork
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.store.codec import encode_vp_batch
from repro.store.serving import QuerySpec
from tests.conftest import run_linked_minute
from tests.store.conftest import fingerprints


@pytest.fixture
def serving_stack():
    net = InMemoryNetwork()
    onion = OnionNetwork(network=net, n_relays=4, hops=2, seed=5)
    system = ViewMapSystem(key_bits=512, seed=6)
    server = ViewMapServer(system=system, network=net)
    a = VehicleAgent(vehicle_id=1, seed=2)
    b = VehicleAgent(vehicle_id=2, seed=3)
    res_a, _ = run_linked_minute(a, b)
    client = VehicleClient(agent=a, onion=onion)
    client.queue_minute_output(res_a.actual_vp, res_a.guard_vps)
    client.upload_pending_batch()
    return net, onion, system, server, client


class TestQueryView:
    def test_encoded_reply_matches_store(self, serving_stack):
        net, onion, system, server, client = serving_stack
        stored = system.database.query(QuerySpec(minute=0)).vps
        assert stored
        assert fingerprints(client.query_view(0)) == fingerprints(stored)

    def test_encoded_field_is_ignored(self, serving_stack):
        # a request saying encoded=false (or anything else) gets the
        # byte-identical stored-span frame: the client picks no shape
        net, onion, system, server, client = serving_stack
        replies = [
            server.handle(encode_message("query_view", session="s", minute=0, **extra))
            for extra in ({}, {"encoded": True}, {"encoded": False}, {"encoded": "no"})
        ]
        assert decode_message(replies[0])["kind"] == "view"
        assert all(reply == replies[0] for reply in replies)

    def test_frame_is_byte_identical_to_reencoding(self, serving_stack):
        net, onion, system, server, client = serving_stack
        payload = encode_message("query_view", session="s", minute=0)
        reply = decode_message(server.handle(payload))
        assert reply["kind"] == "view"
        stored = system.database.query(QuerySpec(minute=0)).vps
        assert reply["frame"] == encode_vp_batch(stored)
        assert reply["n"] == len(stored)

    def test_area_scoped_query(self, serving_stack):
        net, onion, system, server, client = serving_stack
        everywhere = Rect(-1e6, -1e6, 1e6, 1e6)
        stored = system.database.query(QuerySpec(minute=0, area=everywhere)).vps
        assert fingerprints(client.query_view(0, area=everywhere)) == fingerprints(
            stored
        )
        nowhere = Rect(9e5, 9e5, 9.1e5, 9.1e5)
        assert client.query_view(0, area=nowhere) == []

    def test_trusted_filter(self, serving_stack):
        net, onion, system, server, client = serving_stack
        assert client.query_view(0, trusted_only=True) == []

    def test_empty_minute_serves_empty_frame(self, serving_stack):
        net, onion, system, server, client = serving_stack
        assert client.query_view(7777) == []

    def test_serve_encoded_bytes_histogram_observed(self, serving_stack):
        net, onion, system, server, client = serving_stack
        client.query_view(0)
        snap = server.metrics.snapshot()
        hist = snap.get("serve.encoded_bytes")
        assert hist is not None and hist["count"] >= 1
        assert hist["max"] > 0  # a non-empty frame was served

    def test_rtt_histogram_recorded_client_side(self, serving_stack):
        net, onion, system, server, client = serving_stack
        client.query_view(0)
        snap = client.metrics.snapshot()
        hist = snap.get("client.rtt.query_view.wall_s")
        assert hist is not None and hist["count"] >= 1


class TestQueryViewHardening:
    @pytest.mark.parametrize(
        "fields",
        [
            {},  # missing minute
            {"minute": "soon"},
            {"minute": -3},
            {"minute": True},
            {"minute": 1e400},  # parses as inf
            {"minute": 2**32},  # past the codec's minute field (and SQLite's ints at 2**63)
            {"minute": 0, "area": [1.0, 2.0, 3.0]},
            {"minute": 0, "area": [1.0, 2.0, 3.0, float("nan")]},
            {"minute": 0, "area": [5.0, 0.0, 1.0, 1.0]},  # inverted box
        ],
    )
    def test_malformed_requests_get_error_replies(self, serving_stack, fields):
        net, onion, system, server, client = serving_stack
        payload = encode_message("query_view", session="s", **fields)
        reply = decode_message(server.handle(payload))
        assert reply["kind"] == "error"

    def test_malformed_request_raises_on_client(self, serving_stack):
        net, onion, system, server, client = serving_stack
        with pytest.raises(NetworkError):
            client._request("query_view", minute="soon")
