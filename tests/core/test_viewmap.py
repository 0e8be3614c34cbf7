"""Tests for viewmap construction."""

import random

from repro.core.vehicle import VehicleAgent
from repro.core.viewmap import build_viewmap, coverage_area, mutual_linkage
from repro.geo.geometry import Point, Rect
from repro.store.codec import RecordColumns, encode_vp_batch
from tests.conftest import run_linked_minute
from tests.store.conftest import make_vp
from tests.core.test_viewmap_columns import block_vp, synthetic_population


def viewmap_of(vps, minute, **kwargs):
    return build_viewmap(encode_vp_batch(vps), minute, **kwargs)


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
        vmap = viewmap_of([res_a.actual_vp, res_b.actual_vp], minute=0)
        assert vmap.edge_count == 1
        assert vmap.graph.has_edge(res_a.actual_vp.vp_id, res_b.actual_vp.vp_id)

    def test_unlinked_profiles_stay_isolated(self, unlinked_pair):
        _, _, res_a, res_b = unlinked_pair
        vmap = viewmap_of([res_a.actual_vp, res_b.actual_vp], minute=0)
        assert vmap.edge_count == 0
        assert len(vmap.isolated_ids()) == 2
        assert vmap.member_ratio() == 0.0

    def test_guards_join_via_creator(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        profiles = [res_a.actual_vp, res_b.actual_vp] + res_a.guard_vps + res_b.guard_vps
        vmap = viewmap_of(profiles, minute=0)
        for guard in res_a.guard_vps:
            assert vmap.graph.has_edge(guard.vp_id, res_a.actual_vp.vp_id)

    def test_wrong_minute_excluded(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        vmap = viewmap_of([res_a.actual_vp, res_b.actual_vp], minute=7)
        assert vmap.node_count == 0

    def test_area_filter(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        far_area = Rect(10_000, 10_000, 11_000, 11_000)
        vmap = viewmap_of([res_a.actual_vp, res_b.actual_vp], minute=0, area=far_area)
        assert vmap.node_count == 0

    def test_distance_gate_blocks_far_pairs(self):
        # two vehicles 600 m apart that (impossibly) claim mutual blooms
        a = VehicleAgent(vehicle_id=1, seed=1)
        b = VehicleAgent(vehicle_id=2, seed=2)
        res_a, res_b = run_linked_minute(a, b, lateral_gap=600.0)
        # receive() rejected the VDs (out of range) so blooms are empty,
        # but even with forged blooms the geometry gate must hold:
        vmap = viewmap_of(
            [res_a.actual_vp, res_b.actual_vp], minute=0, skip_bloom_check=True
        )
        assert vmap.edge_count == 0

    def test_skip_bloom_mode_links_by_geometry(self, unlinked_pair):
        _, _, res_a, res_b = unlinked_pair
        vmap = viewmap_of(
            [res_a.actual_vp, res_b.actual_vp], minute=0, skip_bloom_check=True
        )
        assert vmap.edge_count == 1


class TestViewMapGraph:
    def test_trusted_ids(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        res_a.actual_vp.trusted = True
        vmap = viewmap_of([res_a.actual_vp, res_b.actual_vp], minute=0)
        assert vmap.trusted_ids() == [res_a.actual_vp.vp_id]

    def test_members_near(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        vmap = viewmap_of([res_a.actual_vp, res_b.actual_vp], minute=0)
        near = vmap.members_near(Point(300, 25), 100.0)
        assert set(near) == {res_a.actual_vp.vp_id, res_b.actual_vp.vp_id}

    def test_members_near_is_any_held_position_in_range(self):
        # one vectorised test over the record columns; the loop below is
        # what ``ViewProfile.claims_location_near`` did member by member.
        # Partial VPs: a zero-padded row is nobody's claim on (0, 0).
        rnd = random.Random(11)
        vps = synthetic_population(rnd, 14, "whole", disorder=False)
        vps.append(block_vp(99, [1, 2], [1.0, 2.0], [(-900.0, 40.0), (-880.0, 40.0)]))
        vmap = viewmap_of(vps, minute=0)
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

    def test_a_repeated_id_is_one_node_with_its_first_row(self):
        # the columns had a row per record while the nodes were deduplicated,
        # so members_near paired ids with the wrong rows and missed ``far``
        near, far = make_vp(seed=1, x0=0.0), make_vp(seed=2, x0=5_000.0)
        vmap = viewmap_of([near, near, far], minute=0)
        assert vmap.members.ids == list(vmap.graph.nodes) == [near.vp_id, far.vp_id]
        assert vmap.members_near(Point(5_000.0, 0.0), 5.0) == [far.vp_id]

    def test_degree_stats(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        vmap = viewmap_of([res_a.actual_vp, res_b.actual_vp], minute=0)
        stats = vmap.degree_stats()
        assert stats["nodes"] == 2 and stats["edges"] == 1
        assert stats["avg_degree"] == 1.0

    def test_empty_graph_stats(self):
        vmap = viewmap_of([], minute=0)
        assert vmap.degree_stats()["nodes"] == 0
        assert vmap.member_ratio() == 0.0


class TestCoverageArea:
    def test_spans_site_and_trusted(self, linked_pair):
        _, _, res_a, _ = linked_pair
        site = Point(-2000.0, 0.0)
        trusted = RecordColumns.from_frame(encode_vp_batch([res_a.actual_vp]))
        area = coverage_area(site, trusted, margin_m=100.0)
        assert area.contains(site)
        assert area.contains(res_a.actual_vp.start_point)
        assert area.contains(res_a.actual_vp.end_point)
