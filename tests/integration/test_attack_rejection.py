"""Integration: fake VPs cheating locations are rejected end to end.

The whole class runs once per store placement — rejection is a property
of verification, and it must not depend on whether the VPs came back
out of anonymous or named segments.
"""

import pytest

from repro.attacks.faker import forge_fake_vp
from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.geo.geometry import Point
from repro.store import STORE_KINDS
from tests.conftest import run_linked_minute
from tests.store.conftest import build_store


@pytest.fixture(params=STORE_KINDS)
def system_with_incident(request):
    store = build_store(request.param)
    system = ViewMapSystem(key_bits=512, seed=31, store=store)
    police = VehicleAgent(vehicle_id=100, seed=31)
    witness = VehicleAgent(vehicle_id=1, seed=32)
    res_pol, res_wit = run_linked_minute(police, witness)
    system.ingest_trusted_vp(res_pol.actual_vp)
    system.ingest_vp(res_wit.actual_vp)
    yield system, witness, res_wit
    system.close()


class TestFakeVPRejection:
    def test_isolated_fake_not_solicited(self, system_with_incident):
        system, _, res_wit = system_with_incident
        fake = forge_fake_vp(
            minute=0, claimed_path=[Point(300, 25), Point(350, 25)], seed=1
        )
        system.ingest_vp(fake)
        inv = system.investigate(Point(300, 25), minute=0, site_radius_m=500)
        assert fake.vp_id not in inv.solicited
        assert res_wit.actual_vp.vp_id in inv.solicited

    def test_bloom_poisoned_fake_not_solicited(self, system_with_incident):
        system, _, res_wit = system_with_incident
        fake = forge_fake_vp(
            minute=0,
            claimed_path=[Point(300, 25), Point(350, 25)],
            claim_neighbors=[res_wit.actual_vp],  # one-way claim
            seed=2,
        )
        system.ingest_vp(fake)
        inv = system.investigate(Point(300, 25), minute=0, site_radius_m=500)
        assert fake.vp_id not in inv.solicited

    def test_fake_video_upload_rejected_even_if_solicited(self, system_with_incident):
        system, _, res_wit = system_with_incident
        inv = system.investigate(Point(300, 25), minute=0, site_radius_m=500)
        vp_id = res_wit.actual_vp.vp_id
        assert vp_id in inv.solicited
        fabricated = [b"fabricated-second-%d" % i for i in range(60)]
        assert not system.receive_video(vp_id, fabricated)

    def test_fake_cannot_claim_reward_without_secret(self, system_with_incident):
        system, witness, res_wit = system_with_incident
        system.investigate(Point(300, 25), minute=0, site_radius_m=500)
        vp_id = res_wit.actual_vp.vp_id
        system.receive_video(vp_id, res_wit.video.chunks)
        system.human_review(vp_id)
        from repro.core.rewarding import claim_reward
        from repro.core.viewdigest import make_secret
        from repro.errors import CryptoError

        with pytest.raises(CryptoError):
            claim_reward(system.rewards, vp_id, make_secret(99), rng=1)
        # the rightful owner still collects
        cash = claim_reward(system.rewards, vp_id, res_wit.video.secret, rng=2)
        assert cash
