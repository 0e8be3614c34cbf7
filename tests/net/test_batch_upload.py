"""Tests for the batched VP upload path and hardened dispatch."""

import pytest

from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.net.client import VehicleClient
from repro.net.messages import (
    MAX_VP_BATCH,
    decode_message,
    encode_message,
    pack_vp_batch_frame,
)
from repro.net.onion import OnionNetwork
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.errors import WireFormatError
from tests.conftest import run_linked_minute


@pytest.fixture
def stack():
    net = InMemoryNetwork()
    onion = OnionNetwork(network=net, n_relays=4, hops=2, seed=5)
    system = ViewMapSystem(key_bits=512, seed=6)
    server = ViewMapServer(system=system, network=net)
    return net, onion, system, server


@pytest.fixture
def client_with_minute(stack):
    net, onion, system, server = stack
    a = VehicleAgent(vehicle_id=1, seed=2)
    b = VehicleAgent(vehicle_id=2, seed=3)
    res_a, _ = run_linked_minute(a, b)
    client = VehicleClient(agent=a, onion=onion)
    client.queue_minute_output(res_a.actual_vp, res_a.guard_vps)
    return stack, client, res_a


class TestBatchUpload:
    def test_upload_pending_batch_lands_all(self, client_with_minute):
        (net, onion, system, server), client, res = client_with_minute
        staged = len(client.pending_vps)
        assert client.upload_pending_batch() == staged
        assert len(system.database) == staged
        assert res.actual_vp.vp_id in system.database
        assert client.pending_vps == []
        assert client.uploaded == staged

    def test_single_round_trip_for_whole_minute(self, client_with_minute):
        (net, onion, system, server), client, _ = client_with_minute
        client.upload_pending_batch()
        batch_requests = [k for k, _ in server.session_log if k == "upload_vp_batch"]
        assert len(batch_requests) == 1

    def test_duplicates_rejected_per_vp(self, client_with_minute):
        (net, onion, system, server), client, res = client_with_minute
        client.upload_pending_batch()
        # restage the actual VP plus an in-batch duplicate pair
        client.queue_minute_output(res.actual_vp, [])
        assert client.upload_pending_batch() == 0
        assert len(system.database) == 1 + len(res.guard_vps)

    def test_in_batch_duplicates_counted_once(self, stack):
        net, onion, system, server = stack
        a = VehicleAgent(vehicle_id=5, seed=7)
        b = VehicleAgent(vehicle_id=6, seed=8)
        res_a, _ = run_linked_minute(a, b)
        payload = encode_message(
            "upload_vp_batch",
            session="s",
            frame=pack_vp_batch_frame([res_a.actual_vp, res_a.actual_vp]),
        )
        reply = decode_message(server.handle(payload))
        assert reply["kind"] == "batch_ack"
        assert reply["accepted"] == [True, False]
        assert reply["inserted"] == 1

    def test_oversized_batch_rejected(self):
        with pytest.raises(WireFormatError):
            pack_vp_batch_frame([None] * (MAX_VP_BATCH + 1))


class TestDispatchHardening:
    def test_unknown_kind_is_closed_world(self, stack):
        net, onion, system, server = stack
        reply = decode_message(server.handle(encode_message("reboot", session="x")))
        assert reply["kind"] == "error"
        assert "unknown kind" in reply["reason"]

    def test_crafted_kinds_cannot_reach_non_handlers(self, stack):
        net, onion, system, server = stack
        # names that exist on the server object but are not handlers
        for kind in ("handle", "system", "network", "__init__", "session_log"):
            reply = decode_message(server.handle(encode_message(kind, session="x")))
            assert reply["kind"] == "error", kind
            assert "unknown kind" in reply["reason"]

    def test_registry_covers_exactly_the_protocol(self, stack):
        net, onion, system, server = stack
        assert set(server._handlers) == {
            "upload_vp_batch",
            "query_view",
            "list_solicitations",
            "upload_video",
            "list_rewards",
            "claim_reward",
            "sign_blinded",
            "public_key",
        }
