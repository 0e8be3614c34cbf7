"""Tests for viewmap construction."""

import random

import pytest

from repro.core.vehicle import VehicleAgent
from repro.core.viewmap import (
    ViewMapGraph,
    build_viewmap,
    coverage_area,
    mutual_linkage,
)
from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect
from tests.conftest import run_linked_minute
from tests.core.test_viewmap_columns import block_vp, synthetic_population


class TestMutualLinkage:
    def test_linked_pair(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        assert mutual_linkage(res_a.actual_vp, res_b.actual_vp)

    def test_unlinked_pair(self, unlinked_pair):
        _, _, res_a, res_b = unlinked_pair
        assert not mutual_linkage(res_a.actual_vp, res_b.actual_vp)


class TestBuildViewmap:
    def test_two_way_edge_created(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        vmap = build_viewmap([res_a.actual_vp, res_b.actual_vp], minute=0)
        assert vmap.edge_count == 1
        assert vmap.graph.has_edge(res_a.actual_vp.vp_id, res_b.actual_vp.vp_id)

    def test_unlinked_profiles_stay_isolated(self, unlinked_pair):
        _, _, res_a, res_b = unlinked_pair
        vmap = build_viewmap([res_a.actual_vp, res_b.actual_vp], minute=0)
        assert vmap.edge_count == 0
        assert len(vmap.isolated_ids()) == 2
        assert vmap.member_ratio() == 0.0

    def test_guards_join_via_creator(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        profiles = [res_a.actual_vp, res_b.actual_vp] + res_a.guard_vps + res_b.guard_vps
        vmap = build_viewmap(profiles, minute=0)
        for guard in res_a.guard_vps:
            assert vmap.graph.has_edge(guard.vp_id, res_a.actual_vp.vp_id)

    def test_wrong_minute_excluded(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        vmap = build_viewmap([res_a.actual_vp, res_b.actual_vp], minute=7)
        assert vmap.node_count == 0

    def test_area_filter(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        far_area = Rect(10_000, 10_000, 11_000, 11_000)
        vmap = build_viewmap([res_a.actual_vp, res_b.actual_vp], minute=0, area=far_area)
        assert vmap.node_count == 0

    def test_distance_gate_blocks_far_pairs(self):
        # two vehicles 600 m apart that (impossibly) claim mutual blooms
        a = VehicleAgent(vehicle_id=1, seed=1)
        b = VehicleAgent(vehicle_id=2, seed=2)
        res_a, res_b = run_linked_minute(a, b, lateral_gap=600.0)
        # receive() rejected the VDs (out of range) so blooms are empty,
        # but even with forged blooms the geometry gate must hold:
        vmap = build_viewmap(
            [res_a.actual_vp, res_b.actual_vp], minute=0, skip_bloom_check=True
        )
        assert vmap.edge_count == 0

    def test_skip_bloom_mode_links_by_geometry(self, unlinked_pair):
        _, _, res_a, res_b = unlinked_pair
        vmap = build_viewmap(
            [res_a.actual_vp, res_b.actual_vp], minute=0, skip_bloom_check=True
        )
        assert vmap.edge_count == 1


class TestViewMapGraph:
    def test_add_viewlink_requires_members(self, linked_pair):
        _, _, res_a, _ = linked_pair
        vmap = ViewMapGraph(minute=0)
        vmap.add_profile(res_a.actual_vp)
        with pytest.raises(ValidationError):
            vmap.add_viewlink(res_a.actual_vp.vp_id, b"\x00" * 16)

    def test_trusted_ids(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        res_a.actual_vp.trusted = True
        vmap = build_viewmap([res_a.actual_vp, res_b.actual_vp], minute=0)
        assert vmap.trusted_ids() == [res_a.actual_vp.vp_id]

    def test_members_near(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        vmap = build_viewmap([res_a.actual_vp, res_b.actual_vp], minute=0)
        near = vmap.members_near(Point(300, 25), 100.0)
        assert set(near) == {res_a.actual_vp.vp_id, res_b.actual_vp.vp_id}

    @pytest.mark.parametrize("assembled", ["build_viewmap", "add_profile"])
    def test_members_near_is_any_held_position_in_range(self, assembled):
        # one vectorised test over the stacked columns; the loop below is
        # what ``ViewProfile.claims_location_near`` did member by member.
        # Partial VPs: a zero-padded row is nobody's claim on (0, 0).
        rnd = random.Random(11)
        vps = synthetic_population(rnd, 14, "whole", disorder=False)
        vps.append(block_vp(99, [1, 2], [1.0, 2.0], [(-900.0, 40.0), (-880.0, 40.0)]))
        if assembled == "build_viewmap":
            vmap = build_viewmap(vps, minute=0)
        else:
            vmap = ViewMapGraph(minute=0)
            for vp in vps[:-1]:
                vmap.add_profile(vp)
            assert vps[-1].vp_id not in vmap.members_near(Point(-890.0, 40.0), 15.0)
            vmap.add_profile(vps[-1])  # after the columns were stacked
        for center, radius_m in [
            (Point(0.0, 0.0), 50.0),
            (Point(-890.0, 40.0), 15.0),
            (Point(600.0, 600.0), 300.0),
            (Point(600.0, 600.0), 5_000.0),
            (Point(*vps[3].positions_array[-1].tolist()), 0.0),
        ]:
            want = []
            for vp in vps:
                d = vp.positions_array - (center.x, center.y)
                if (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= radius_m * radius_m).any():
                    want.append(vp.vp_id)
            assert vmap.members_near(center, radius_m) == want
        assert vmap.members_near(Point(0.0, 0.0), 50.0) == []
        assert vmap.members_near(Point(-890.0, 40.0), 15.0) == [vps[-1].vp_id]

    def test_degree_stats(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        vmap = build_viewmap([res_a.actual_vp, res_b.actual_vp], minute=0)
        stats = vmap.degree_stats()
        assert stats["nodes"] == 2 and stats["edges"] == 1
        assert stats["avg_degree"] == 1.0

    def test_empty_graph_stats(self):
        vmap = ViewMapGraph(minute=0)
        assert vmap.degree_stats()["nodes"] == 0
        assert vmap.member_ratio() == 0.0


class TestCoverageArea:
    def test_spans_site_and_trusted(self, linked_pair):
        _, _, res_a, _ = linked_pair
        site = Point(-2000.0, 0.0)
        area = coverage_area(site, [res_a.actual_vp], margin_m=100.0)
        assert area.contains(site)
        assert area.contains(res_a.actual_vp.start_point)
        assert area.contains(res_a.actual_vp.end_point)
