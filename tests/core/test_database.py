"""Tests for the VP database."""

import pytest

from repro.core.database import VPDatabase
from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect
from repro.store.serving import QuerySpec
from tests.core.test_viewprofile import make_vp


class TestInsertQuery:
    def test_insert_and_get(self):
        db = VPDatabase()
        vp = make_vp(seed=1)
        db.insert(vp)
        assert len(db) == 1
        assert vp.vp_id in db
        assert db.get(vp.vp_id) is vp

    def test_duplicate_rejected(self):
        db = VPDatabase()
        vp = make_vp(seed=1)
        db.insert(vp)
        with pytest.raises(ValidationError):
            db.insert(vp)

    def test_by_minute(self):
        db = VPDatabase()
        db.insert(make_vp(seed=1))
        db.insert(make_vp(seed=2))
        assert len(db.query(QuerySpec(minute=0)).vps) == 2
        assert db.query(QuerySpec(minute=5)).vps == []
        assert db.minutes() == [0]

    def test_by_minute_in_area(self):
        db = VPDatabase()
        near = make_vp(seed=1, x0=0.0)
        far = make_vp(seed=2, x0=10_000.0)
        db.insert(near)
        db.insert(far)
        area = Rect(-100, -100, 1000, 100)
        found = db.query(QuerySpec(minute=0, area=area)).vps
        assert found == [near]


class TestTrusted:
    def test_trusted_flag_set_on_authority_path(self):
        db = VPDatabase()
        vp = make_vp(seed=3)
        db.insert_trusted(vp)
        assert vp.trusted
        assert db.query(QuerySpec(minute=0, trusted_only=True)).vps == [vp]

    def test_anonymous_vps_not_trusted(self):
        db = VPDatabase()
        db.insert(make_vp(seed=4))
        assert db.query(QuerySpec(minute=0, trusted_only=True)).vps == []

    def test_nearest_trusted_ordering(self):
        db = VPDatabase()
        near = make_vp(seed=5, x0=0.0)
        far = make_vp(seed=6, x0=5_000.0)
        db.insert_trusted(far)
        db.insert_trusted(near)
        best = db.query(QuerySpec(minute=0, trusted_only=True, nearest=Point(0, 0), k=1)).vps
        assert best == [near]
        both = db.query(QuerySpec(minute=0, trusted_only=True, nearest=Point(0, 0), k=2)).vps
        assert both == [near, far]
