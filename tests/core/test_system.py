"""Tests for the ViewMapSystem facade."""

import pytest

import repro.core.system as system_module
from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.core.viewprofile import ViewProfile
from repro.errors import ValidationError
from repro.geo.geometry import Point
from repro.sim.stream import stream_convoy_vps, stream_vp
from tests.conftest import run_linked_minute
from tests.store.conftest import make_vp


@pytest.fixture
def populated_system():
    """System with a trusted VP linked to one anonymous VP."""
    system = ViewMapSystem(key_bits=512, seed=1)
    police = VehicleAgent(vehicle_id=100, seed=10)
    civilian = VehicleAgent(vehicle_id=1, seed=11)
    res_police, res_civ = run_linked_minute(police, civilian)
    system.ingest_trusted_vp(res_police.actual_vp)
    system.ingest_vps([res_civ.actual_vp, *res_civ.guard_vps, *res_police.guard_vps])
    return system, civilian, res_civ


class TestIngestion:
    def test_anonymous_cannot_claim_trusted(self):
        system = ViewMapSystem(key_bits=512, seed=2)
        agent = VehicleAgent(vehicle_id=1, seed=1)
        for i in range(60):
            agent.emit(i + 1.0, Point(float(i), 0), minute=0)
        vp = agent.finalize_minute().actual_vp
        vp.trusted = True
        with pytest.raises(ValidationError):
            system.ingest_vps([vp])


class TestInvestigation:
    def test_investigate_solicits_legit_vps(self, populated_system):
        system, _, res_civ = populated_system
        inv = system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
        assert res_civ.actual_vp.vp_id in inv.solicited
        assert system.solicitations.is_requested(res_civ.actual_vp.vp_id)

    def test_investigate_without_trusted_raises(self):
        system = ViewMapSystem(key_bits=512, seed=3)
        with pytest.raises(ValidationError):
            system.investigate(Point(0, 0), minute=0)

    def test_investigation_result_structure(self, populated_system):
        system, _, _ = populated_system
        inv = system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
        assert inv.minute == 0
        assert inv.viewmap.node_count >= 2
        assert inv.verification.top_site_vp is not None


class TestInvestigationReadsColumns:
    """Investigation reads the store's frames as columns, never as objects."""

    def test_investigate_period_builds_no_view_profile(self, monkeypatch):
        site = (1_000.0, 1_000.0)
        system = ViewMapSystem(key_bits=512, seed=3)
        for minute in (0, 1):
            trusted, witnesses = stream_convoy_vps(5, minute, 8, site)
            system.ingest_trusted_vp(trusted)
            system.ingest_vps(witnesses + [stream_vp(5, minute, v, 2_000.0) for v in range(40)])
        built = []
        init = ViewProfile.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ViewProfile, "__init__", counting)
        found = system.investigate_period(Point(*site), [0, 1])
        assert [inv.minute for inv in found] == [0, 1]
        assert all(inv.solicited and inv.viewmap.node_count > 8 for inv in found)
        assert built == []


def chosen_seed(monkeypatch, system, site, minute=0):
    """The ids of the trusted VPs ``investigate`` spanned its area over."""
    seeds = []
    coverage_area = system_module.coverage_area

    def spy(at, trusted, *args, **kwargs):
        seeds.append(trusted.ids)
        return coverage_area(at, trusted, *args, **kwargs)

    monkeypatch.setattr(system_module, "coverage_area", spy)
    system.investigate(site, minute, solicit=False)
    (ids,) = seeds
    return ids


class TestSeedChoice:
    """The seed is the trusted VP whose claimed positions come nearest the site."""

    @pytest.mark.parametrize("site", [Point(400.0, 100.0), Point(0.0, 0.0), Point(900.0, 900.0)])
    def test_the_nearest_trusted_vp_by_claimed_position(self, monkeypatch, site):
        system = ViewMapSystem(key_bits=512, seed=4)
        vps = [make_vp(seed=i, x0=123.0 * i, y0=37.0 * i) for i in range(6)]
        for vp in reversed(vps):
            system.ingest_trusted_vp(vp)

        def pointwise(vp):
            return min(site.distance_to(p) for p in vp.trajectory.points)

        assert chosen_seed(monkeypatch, system, site) == [min(vps, key=pointwise).vp_id]

    def test_near_wins_over_far_whatever_the_order(self, monkeypatch):
        system = ViewMapSystem(key_bits=512, seed=5)
        near, far = make_vp(seed=7, x0=0.0), make_vp(seed=8, x0=5_000.0)
        system.ingest_trusted_vp(far)
        system.ingest_trusted_vp(near)
        assert chosen_seed(monkeypatch, system, Point(0.0, 0.0)) == [near.vp_id]

    @pytest.mark.parametrize("minute, order", [(0, (100.0, -130.0)), (1, (-130.0, 100.0))])
    def test_ties_keep_insertion_order(self, monkeypatch, minute, order):
        # both trajectories end 100 m from the site, on opposite sides;
        # only insertion order can break the tie
        system = ViewMapSystem(key_bits=512, seed=6)
        tied = [make_vp(seed=20 + i, minute=minute, x0=x0) for i, x0 in enumerate(order)]
        for vp in tied:
            system.ingest_trusted_vp(vp)
        system.ingest_vps([make_vp(seed=29, minute=minute, x0=400.0)])
        assert chosen_seed(monkeypatch, system, Point(0.0, 0.0), minute) == [tied[0].vp_id]


class TestVideoFlow:
    def test_full_video_and_reward_flow(self, populated_system):
        system, civilian, res_civ = populated_system
        system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
        vp_id = res_civ.actual_vp.vp_id
        assert system.receive_video(vp_id, res_civ.video.chunks)
        system.human_review(vp_id)
        assert vp_id in system.reviewed
        assert system.rewards.pending_ids() == [vp_id]

    def test_unsolicited_video_rejected(self, populated_system):
        system, _, res_civ = populated_system
        # no investigation ran: nothing solicited
        assert not system.receive_video(res_civ.actual_vp.vp_id, res_civ.video.chunks)

    def test_tampered_video_rejected(self, populated_system):
        system, _, res_civ = populated_system
        system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
        tampered = list(res_civ.video.chunks)
        tampered[0] = b"forged"
        assert not system.receive_video(res_civ.actual_vp.vp_id, tampered)

    def test_review_requires_received_video(self, populated_system):
        system, _, res_civ = populated_system
        with pytest.raises(ValidationError):
            system.human_review(res_civ.actual_vp.vp_id)

    def test_guard_vp_solicitation_yields_no_video(self, populated_system):
        # guard VPs may be solicited, but no owner can produce the video:
        # vehicles deleted them and their hashes are random
        system, civilian, res_civ = populated_system
        inv = system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
        guard_ids = [g.vp_id for g in res_civ.guard_vps if g.vp_id in inv.solicited]
        for guard_id in guard_ids:
            assert not system.receive_video(guard_id, res_civ.video.chunks)
