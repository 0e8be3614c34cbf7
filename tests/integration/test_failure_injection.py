"""Failure injection: the system under degraded or hostile conditions."""

import pytest

from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.core.viewmap import build_viewmap
from repro.geo.geometry import Point
from repro.store.codec import encode_vp_batch
from tests.conftest import run_linked_minute


class TestLossyChannel:
    def test_single_delivery_each_way_still_links(self):
        """One surviving VD per direction suffices for a viewlink."""
        a = VehicleAgent(vehicle_id=1, seed=1)
        b = VehicleAgent(vehicle_id=2, seed=2)
        for i in range(60):
            t = i + 1.0
            pa, pb = Point(10.0 * i, 0.0), Point(10.0 * i, 50.0)
            vda = a.emit(t, pa, minute=0)
            vdb = b.emit(t, pb, minute=0)
            if i == 17:  # a hears b exactly once
                a.receive(vdb, t, pa)
            if i == 43:  # b hears a exactly once
                b.receive(vda, t, pb)
        res_a, res_b = a.finalize_minute(), b.finalize_minute()
        vmap = build_viewmap(encode_vp_batch([res_a.actual_vp, res_b.actual_vp]), minute=0)
        assert vmap.edge_count == 1

    def test_one_way_loss_means_no_link(self):
        """Total loss in one direction leaves the pair unlinked."""
        a = VehicleAgent(vehicle_id=3, seed=3)
        b = VehicleAgent(vehicle_id=4, seed=4)
        for i in range(60):
            t = i + 1.0
            pa, pb = Point(10.0 * i, 0.0), Point(10.0 * i, 50.0)
            vda = a.emit(t, pa, minute=0)
            b.emit(t, pb, minute=0)
            b.receive(vda, t, pb)  # only b hears a
        res_a, res_b = a.finalize_minute(), b.finalize_minute()
        vmap = build_viewmap(encode_vp_batch([res_a.actual_vp, res_b.actual_vp]), minute=0)
        assert vmap.edge_count == 0


class TestClockSkew:
    def test_skewed_vds_rejected(self):
        """A receiver with drifted clock state discards stale digests."""
        a = VehicleAgent(vehicle_id=5, seed=5)
        b = VehicleAgent(vehicle_id=6, seed=6)
        vd = a.emit(1.0, Point(0, 0), minute=0)
        b.emit(1.0, Point(50, 0), minute=0)
        # delivered 3 seconds late (past the 1-second interval check)
        assert not b.receive(vd, 4.0, Point(50, 0))

    def test_gps_spoofed_location_rejected(self):
        """A VD claiming a position beyond DSRC reach is discarded."""
        a = VehicleAgent(vehicle_id=7, seed=7)
        b = VehicleAgent(vehicle_id=8, seed=8)
        vd = a.emit(1.0, Point(0, 0), minute=0)
        b.emit(1.0, Point(10_000, 0), minute=0)
        assert not b.receive(vd, 1.0, Point(10_000, 0))


class TestPartialUploads:
    def test_investigation_with_missing_vps(self):
        """Vehicles that never upload simply do not join the viewmap."""
        system = ViewMapSystem(key_bits=512, seed=51)
        police = VehicleAgent(vehicle_id=100, seed=51)
        civ = VehicleAgent(vehicle_id=1, seed=52)
        res_pol, res_civ = run_linked_minute(police, civ)
        system.ingest_trusted_vp(res_pol.actual_vp)
        # civilian never uploads: investigation still completes
        inv = system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
        assert res_civ.actual_vp.vp_id not in inv.solicited
        assert res_pol.actual_vp.vp_id in inv.solicited

    def test_video_for_unknown_vp_rejected(self):
        system = ViewMapSystem(key_bits=512, seed=53)
        assert not system.receive_video(b"\x00" * 16, [b"x"] * 60)


class TestRewardEdgeCases:
    def test_review_then_duplicate_review_rejected(self):
        system = ViewMapSystem(key_bits=512, seed=54)
        police = VehicleAgent(vehicle_id=100, seed=54)
        civ = VehicleAgent(vehicle_id=1, seed=55)
        res_pol, res_civ = run_linked_minute(police, civ)
        system.ingest_trusted_vp(res_pol.actual_vp)
        system.ingest_vps([res_civ.actual_vp])
        system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
        vp_id = res_civ.actual_vp.vp_id
        assert system.receive_video(vp_id, res_civ.video.chunks)
        system.human_review(vp_id)
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            system.human_review(vp_id)

    def test_second_video_upload_after_received_rejected(self):
        system = ViewMapSystem(key_bits=512, seed=56)
        police = VehicleAgent(vehicle_id=100, seed=56)
        civ = VehicleAgent(vehicle_id=1, seed=57)
        res_pol, res_civ = run_linked_minute(police, civ)
        system.ingest_trusted_vp(res_pol.actual_vp)
        system.ingest_vps([res_civ.actual_vp])
        system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
        vp_id = res_civ.actual_vp.vp_id
        assert system.receive_video(vp_id, res_civ.video.chunks)
        # board no longer requests it: duplicate uploads bounce
        assert not system.receive_video(vp_id, res_civ.video.chunks)
