"""Tests for standalone fake VP forgeries."""

from repro.attacks.faker import forge_fake_vp
from repro.core.viewmap import build_viewmap, mutual_linkage
from repro.geo.geometry import Point
from repro.store.codec import encode_vp_batch


class TestForgeFakeVP:
    def test_fake_claims_requested_trajectory(self):
        path = [Point(0, 0), Point(500, 0)]
        fake = forge_fake_vp(minute=0, claimed_path=path, seed=1)
        assert len(fake.digests) == 60
        assert fake.minute == 0
        assert fake.start_point.distance_to(Point(0, 0)) < 1.0
        assert fake.end_point.distance_to(Point(500, 0)) < 1.0

    def test_fake_timestamps_cover_minute(self):
        fake = forge_fake_vp(minute=2, claimed_path=[Point(0, 0)], seed=2)
        assert fake.digests[0].t == 121.0
        assert fake.digests[-1].t == 180.0

    def test_isolated_fake_has_no_links(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        fake = forge_fake_vp(
            minute=0, claimed_path=[Point(300, 25), Point(400, 25)], seed=3
        )
        vmap = build_viewmap(
            encode_vp_batch([res_a.actual_vp, res_b.actual_vp, fake]), minute=0
        )
        assert vmap.graph.degree(fake.vp_id) == 0

    def test_one_way_bloom_poisoning_insufficient(self, linked_pair):
        # claiming honest VPs in the forged bloom passes one direction
        # but the two-way test still rejects the link
        _, _, res_a, res_b = linked_pair
        fake = forge_fake_vp(
            minute=0,
            claimed_path=[Point(300, 25), Point(400, 25)],
            claim_neighbors=[res_a.actual_vp],
            seed=4,
        )
        assert fake.may_link_to(res_a.actual_vp)
        assert not mutual_linkage(fake, res_a.actual_vp)
        frame = encode_vp_batch([res_a.actual_vp, res_b.actual_vp, fake])
        vmap = build_viewmap(frame, minute=0)
        assert vmap.graph.degree(fake.vp_id) == 0

    def test_colluding_fakes_can_link_to_each_other(self):
        a = forge_fake_vp(minute=0, claimed_path=[Point(0, 0), Point(100, 0)], seed=5)
        b = forge_fake_vp(
            minute=0,
            claimed_path=[Point(50, 0), Point(150, 0)],
            claim_neighbors=[a],
            seed=6,
        )
        a.bloom.add(b.digests[0].bloom_key())
        a.bloom.add(b.digests[-1].bloom_key())
        assert mutual_linkage(a, b)
        vmap = build_viewmap(encode_vp_batch([a, b]), minute=0)
        assert vmap.edge_count == 1
