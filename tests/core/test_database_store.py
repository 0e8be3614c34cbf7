"""Tests for the store-backed VP database facade and its satellite fixes."""

import numpy as np
import pytest

from repro.core.database import VPDatabase
from repro.errors import ValidationError
from repro.geo.geometry import Point
from repro.store import SegmentStore
from repro.store.serving import QuerySpec
from tests.store.conftest import build_store, fingerprints, make_vp


class TestFacadeOverBackends:
    @pytest.mark.parametrize(
        "store_factory",
        [lambda: SegmentStore(), lambda: build_store("named")],
        ids=["anonymous", "named"],
    )
    def test_public_api_over_any_backend(self, store_factory):
        db = VPDatabase(store=store_factory())
        vp = make_vp(seed=1)
        db.insert(vp)
        assert len(db) == 1
        assert vp.vp_id in db
        assert fingerprints([db.get(vp.vp_id)]) == fingerprints([vp])
        assert db.minutes() == [0]
        db.close()

    def test_default_store_is_anonymous(self):
        # the default is the segment log on anonymous segments: it keeps
        # bytes, so a read is equal in content and a fresh object
        db = VPDatabase()
        assert isinstance(db.store, SegmentStore) and db.store.path == ""
        vp = make_vp(seed=2)
        db.insert(vp)
        got = db.get(vp.vp_id)
        assert got == vp and got is not vp and got is not db.get(vp.vp_id)
        db.close()

    def test_insert_many_batch_path(self):
        db = VPDatabase()
        vps = [make_vp(seed=i) for i in range(4)]
        assert db.insert_many(vps) == 4
        assert db.insert_many(vps) == 0  # idempotent re-ingest
        assert db.stats().vps == 4


class TestInsertTrustedMutation:
    def test_rejected_insert_does_not_flip_caller_flag(self):
        # the seed implementation set vp.trusted = True *before* the
        # duplicate check, leaking trust into caller-held objects
        db = VPDatabase()
        db.insert(make_vp(seed=5))
        dup = make_vp(seed=5)
        with pytest.raises(ValidationError):
            db.insert_trusted(dup)
        assert not dup.trusted

    def test_accepted_insert_still_sets_flag(self):
        db = VPDatabase()
        vp = make_vp(seed=6)
        db.insert_trusted(vp)
        assert vp.trusted
        assert db.query(QuerySpec(minute=0, trusted_only=True)).vps == [vp]


class TestNearestTrustedVectorized:
    def test_matches_pointwise_reference(self):
        db = VPDatabase()
        vps = [make_vp(seed=i, x0=123.0 * i, y0=37.0 * i) for i in range(6)]
        for vp in vps:
            db.insert_trusted(vp)
        site = Point(400.0, 100.0)

        def pointwise(vp):
            return min(site.distance_to(p) for p in vp.trajectory.points)

        expected = sorted(vps, key=pointwise)[:3]
        assert db.query(QuerySpec(minute=0, trusted_only=True, nearest=site, k=3)).vps == expected

    def test_uses_positions_array(self):
        db = VPDatabase()
        vp = make_vp(seed=9)
        db.insert_trusted(vp)
        assert isinstance(vp.positions_array, np.ndarray)
        assert db.query(QuerySpec(minute=0, trusted_only=True, nearest=Point(0, 0))).vps == [vp]
