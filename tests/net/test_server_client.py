"""Tests for the networked server/client pair."""

import pytest

from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.geo.geometry import Point
from repro.net.client import VehicleClient
from repro.net.onion import OnionNetwork
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from tests.conftest import run_linked_minute


@pytest.fixture
def stack():
    net = InMemoryNetwork()
    onion = OnionNetwork(network=net, n_relays=4, hops=2, seed=5)
    system = ViewMapSystem(key_bits=512, seed=6)
    server = ViewMapServer(system=system, network=net)
    return net, onion, system, server


@pytest.fixture
def driven_clients(stack):
    net, onion, system, server = stack
    police = VehicleAgent(vehicle_id=100, seed=1)
    civ = VehicleAgent(vehicle_id=1, seed=2)
    res_pol, res_civ = run_linked_minute(police, civ)
    system.ingest_trusted_vp(res_pol.actual_vp)
    client = VehicleClient(agent=civ, onion=onion)
    client.queue_minute_output(res_civ.actual_vp, res_civ.guard_vps)
    return stack, client, res_civ


class TestUpload:
    def test_upload_pending(self, driven_clients):
        (net, onion, system, server), client, res_civ = driven_clients
        n = client.upload_pending()
        assert n == 1 + len(res_civ.guard_vps)
        assert res_civ.actual_vp.vp_id in system.database
        assert client.pending_vps == []

    def test_duplicate_upload_not_double_counted(self, driven_clients):
        _, client, res_civ = driven_clients
        client.upload_pending()
        client.queue_minute_output(res_civ.actual_vp, [])
        assert client.upload_pending() == 0  # server answered duplicate


class TestSolicitationFlow:
    def run_investigation(self, driven_clients):
        (net, onion, system, server), client, res_civ = driven_clients
        client.upload_pending()
        system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
        return system, client, res_civ

    def test_check_solicitations_matches_archive(self, driven_clients):
        system, client, res_civ = self.run_investigation(driven_clients)
        matched = client.check_solicitations()
        assert matched == [res_civ.actual_vp.vp_id]

    def test_video_upload_and_reward(self, driven_clients):
        system, client, res_civ = self.run_investigation(driven_clients)
        assert client.upload_solicited_videos() == 1
        system.human_review(res_civ.actual_vp.vp_id)
        minted = client.claim_rewards()
        assert minted == system.reward_units
        for unit in client.cash:
            system.registry.redeem(unit)
        assert system.registry.redeemed == minted

    def test_sessions_unlinkable(self, driven_clients):
        (net, onion, system, server), client, res_civ = driven_clients
        client.upload_pending()
        sessions = [s for _, s in server.session_log if s]
        assert len(set(sessions)) == len(sessions)  # never reused

    def test_each_vp_rides_its_own_session(self, driven_clients):
        # one circuit per VP, not per minute: the authority cannot tie
        # the actual VP to its guards by a shared session
        (net, onion, system, server), client, res_civ = driven_clients
        client.upload_pending()
        uploads = [s for kind, s in server.session_log if kind == "upload_vp_batch"]
        assert len(uploads) == len(set(uploads)) == 1 + len(res_civ.guard_vps)

    def test_server_never_sees_client_address(self, driven_clients):
        (net, onion, system, server), client, _ = driven_clients
        client.upload_pending()
        sources = {src for src, dst, _ in net.delivery_log if dst == server.address}
        assert "client" not in sources
        assert all(src.startswith("relay-") for src in sources)

    def test_public_key_fetch(self, driven_clients):
        (net, onion, system, server), client, _ = driven_clients
        public = client.fetch_public_key()
        assert public.n == system.rewards.public_key.n
        assert public.e == system.rewards.public_key.e
