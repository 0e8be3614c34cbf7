"""Tests for view profiles."""

import pytest

from repro.constants import VP_STORAGE_BYTES
from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.errors import ValidationError
from repro.geo.geometry import Point


def make_vp(seed=1, n=60, neighbors=None, x0=0.0):
    gen = VDGenerator(make_secret(seed))
    for i in range(n):
        gen.tick(float(i + 1), Point(x0 + 10.0 * i, 0), b"chunk")
    table = NeighborTable()
    for record_vds in neighbors or []:
        for vd in record_vds:
            table.accept(vd)
    return build_view_profile(gen.digests, table)


class TestConstruction:
    def test_empty_digests_rejected(self):
        from repro.crypto.bloom import BloomFilter

        with pytest.raises(ValidationError):
            ViewProfile(digests=[], bloom=BloomFilter())

    def test_mixed_ids_rejected(self):
        from repro.crypto.bloom import BloomFilter

        a = make_vp(seed=1, n=2)
        b = make_vp(seed=2, n=2)
        with pytest.raises(ValidationError):
            ViewProfile(digests=[a.digests[0], b.digests[1]], bloom=BloomFilter())

    def test_non_increasing_indices_rejected(self):
        from repro.crypto.bloom import BloomFilter

        vp = make_vp(seed=3, n=3)
        with pytest.raises(ValidationError):
            ViewProfile(digests=[vp.digests[1], vp.digests[0]], bloom=BloomFilter())


    def test_vp_owns_its_block_not_the_callers_list(self):
        # the constructor used to keep ``digests`` by reference: editing
        # the list afterwards changed the VP without re-running a check
        from repro.crypto.bloom import BloomFilter

        digests = list(make_vp(seed=3, n=5).digests)
        stranger = make_vp(seed=4, n=1).digests[0]
        vp = ViewProfile(digests=digests, bloom=BloomFilter())
        block, n_digests, vp_id = vp.digest_block(), vp.n_digests, vp.vp_id
        digests.reverse()
        digests.append(stranger)
        del digests[1]
        assert (vp.digest_block(), vp.n_digests, vp.vp_id) == (block, n_digests, vp_id)
        assert [vd.second_index for vd in vp.digests] == [1, 2, 3, 4, 5]
        # and what it hands out is not a way in either
        vp.digests[:].clear()
        assert vp.n_digests == 5


class TestProperties:
    def test_vp_id_consistent(self):
        vp = make_vp(seed=4)
        assert vp.vp_id == vp.digests[0].vp_id
        assert vp.vp_id_hex == vp.vp_id.hex()

    def test_minute_from_first_digest(self):
        vp = make_vp(seed=5)
        assert vp.minute == 0

    def test_trajectory_and_endpoints(self):
        vp = make_vp(seed=6)
        assert vp.start_point == vp.trajectory.start_point
        assert vp.end_point.x == pytest.approx(590.0)
        assert len(vp.trajectory) == 60

    def test_positions_array_shape(self):
        vp = make_vp(seed=7)
        assert vp.positions_array.shape == (60, 2)
        assert vp.times_array.shape == (60,)

    def test_storage_bytes_matches_paper(self):
        # Section 6.1: 60*72 + 256 + 8 = 4584 bytes
        assert ViewProfile.storage_bytes() == VP_STORAGE_BYTES == 4584
        assert ViewProfile.storage_bytes(include_secret=False) == 4576


class TestLinkage:
    def test_neighbor_vds_in_bloom(self):
        neighbor = make_vp(seed=9, n=10)
        record_vds = [neighbor.digests[0], neighbor.digests[-1]]
        vp = make_vp(seed=10, n=10, neighbors=[record_vds])
        assert vp.may_link_to(neighbor)

    def test_stranger_not_in_bloom(self):
        vp = make_vp(seed=11, n=10)
        stranger = make_vp(seed=12, n=10)
        assert not vp.may_link_to(stranger)

    def test_one_way_is_not_mutual(self):
        from repro.core.viewmap import mutual_linkage

        neighbor = make_vp(seed=13, n=10)
        vp = make_vp(seed=14, n=10, neighbors=[[neighbor.digests[0]]])
        assert vp.may_link_to(neighbor)
        assert not mutual_linkage(vp, neighbor)
