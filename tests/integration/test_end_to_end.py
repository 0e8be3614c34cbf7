"""Integration: the full paper workflow on a small simulated fleet.

Simulate city traffic with a police vehicle, upload VPs, investigate an
incident, verify, solicit, validate video uploads, review, and pay
untraceable rewards — asserting the paper's end-to-end guarantees at each
step.
"""

import pytest

from repro.core.rewarding import claim_reward
from repro.core.system import ViewMapSystem
from repro.geo.routing import make_grid_route_fn
from repro.mobility.scenarios import city_scenario
from repro.radio.channel import DsrcChannel
from repro.sim.runner import run_viewmap_simulation
from repro.store.serving import QuerySpec


@pytest.fixture(scope="module")
def city_run():
    scn = city_scenario(area_km=1.5, n_vehicles=12, duration_s=60, seed=21)
    channel = DsrcChannel(corridor_block_m=scn.block_m, seed=21)
    result = run_viewmap_simulation(
        scn.traces, channel, route_fn=make_grid_route_fn(scn.block_m), seed=21
    )
    return scn, result


@pytest.fixture(scope="module")
def investigated(city_run):
    scn, result = city_run
    system = ViewMapSystem(key_bits=512, seed=22)
    # vehicle 0 is the police car: its VP arrives via the authority path
    police_vp = result.actual_vps(0)[0]
    police_id = result.actual_owner[police_vp.vp_id]
    for vp in result.vps_by_minute[0]:
        if vp is police_vp:
            system.ingest_trusted_vp(vp)
        else:
            system.ingest_vp(vp)
    site = police_vp.end_point  # incident near the police car's path
    inv = system.investigate(site, minute=0, site_radius_m=600)
    return system, result, inv, police_id


class TestInvestigation:
    def test_viewmap_includes_most_members(self, investigated):
        system, result, inv, _ = investigated
        assert inv.viewmap.node_count >= 5

    def test_solicited_vps_are_verified_legitimate(self, investigated):
        system, result, inv, _ = investigated
        assert inv.solicited
        for vp_id in inv.solicited:
            assert inv.verification.is_legitimate(vp_id)

    def test_videos_upload_validate_and_reward(self, investigated):
        system, result, inv, police_id = investigated
        rewarded = 0
        for vp_id in inv.solicited:
            owner = result.actual_owner.get(vp_id)
            if owner is None or owner == police_id:
                continue  # guard VP (no owner can answer) or the police car
            video = result.agents[owner].video_for(vp_id)
            assert video is not None
            assert system.receive_video(vp_id, video.chunks)
            system.human_review(vp_id)
            cash = claim_reward(system.rewards, vp_id, video.secret, rng=owner)
            assert len(cash) == system.reward_units
            for unit in cash:
                system.registry.redeem(unit)
            rewarded += 1
        assert rewarded >= 1
        assert system.registry.redeemed == rewarded * system.reward_units

    def test_guard_vps_never_produce_videos(self, investigated):
        system, result, inv, _ = investigated
        guard_ids = [v for v in inv.solicited if v in result.guard_creator]
        for vp_id in guard_ids:
            creator = result.guard_creator[vp_id]
            # even the creator has nothing to upload: guards are deleted
            assert result.agents[creator].video_for(vp_id) is None

    def test_system_cannot_distinguish_guard_from_actual(self, investigated):
        system, result, inv, _ = investigated
        # the database view of a guard VP and an actual VP expose the same
        # attributes; only ground truth (unavailable to the system) differs
        minute_vps = system.database.query(QuerySpec(minute=0)).vps
        guards = [vp for vp in minute_vps if vp.vp_id in result.guard_creator]
        actuals = [
            vp
            for vp in minute_vps
            if vp.vp_id in result.actual_owner and not vp.trusted
        ]
        if guards and actuals:
            g, a = guards[0], actuals[0]
            assert len(g.digests) == len(a.digests)
            assert g.bloom.m_bits == a.bloom.m_bits
            assert not g.trusted and not a.trusted
