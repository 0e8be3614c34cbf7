"""Tests for the grid-indexed in-memory VP store."""

from dataclasses import replace

import pytest

from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect
from repro.store import MemoryStore, SpatialGrid
from repro.store.serving import QuerySpec
from tests.store.conftest import make_vp


class TestInsertQuery:
    def test_insert_get_identity(self):
        store = MemoryStore()
        vp = make_vp(seed=1)
        store.insert(vp)
        assert len(store) == 1
        assert vp.vp_id in store
        assert store.get(vp.vp_id) is vp

    def test_duplicate_rejected(self):
        store = MemoryStore()
        vp = make_vp(seed=1)
        store.insert(vp)
        with pytest.raises(ValidationError):
            store.insert(vp)

    def test_by_minute_preserves_insertion_order(self):
        store = MemoryStore()
        vps = [make_vp(seed=i, minute=2) for i in range(5)]
        for vp in vps:
            store.insert(vp)
        assert store.query(QuerySpec(minute=2)).vps == vps
        assert store.minutes() == [2]

    def test_insert_many_skips_duplicates(self):
        store = MemoryStore()
        a, b = make_vp(seed=1), make_vp(seed=2)
        store.insert(a)
        assert store.insert_many([a, b, b]) == 1
        assert len(store) == 2


class TestAreaQuery:
    def test_matches_linear_scan_semantics(self):
        store = MemoryStore(cell_m=100.0)
        near = make_vp(seed=1, x0=0.0)
        far = make_vp(seed=2, x0=10_000.0)
        store.insert(near)
        store.insert(far)
        found = store.query(QuerySpec(minute=0, area=Rect(-100, -100, 1000, 100))).vps
        assert found == [near]

    def test_vp_spanning_cells_found_once(self):
        # a trajectory crossing many cells must not be returned twice
        store = MemoryStore(cell_m=50.0)
        vp = make_vp(seed=3, n=10, step=40.0)  # spans 360 m -> 8 cells
        store.insert(vp)
        found = store.query(QuerySpec(minute=0, area=Rect(-1000, -1000, 1000, 1000))).vps
        assert found == [vp]

    def test_boundary_inclusive(self):
        store = MemoryStore()
        vp = make_vp(seed=4, n=2, x0=0.0)  # positions at x=0 and x=10
        store.insert(vp)
        assert store.query(QuerySpec(minute=0, area=Rect(10.0, -5.0, 20.0, 5.0))).vps == [vp]
        assert store.query(QuerySpec(minute=0, area=Rect(10.5, -5.0, 20.0, 5.0))).vps == []

    def test_empty_minute(self):
        store = MemoryStore()
        assert store.query(QuerySpec(minute=9, area=Rect(0, 0, 1, 1))).vps == []


class TestTrusted:
    def test_insert_trusted_sets_flag(self):
        store = MemoryStore()
        vp = make_vp(seed=5)
        store.insert_trusted(vp)
        assert vp.trusted
        assert store.query(QuerySpec(minute=0, trusted_only=True)).vps == [vp]

    def test_duplicate_insert_trusted_leaves_argument_untouched(self):
        store = MemoryStore()
        first = make_vp(seed=6)
        store.insert(first)
        dup = make_vp(seed=6)  # same secret -> same vp_id, caller-held copy
        with pytest.raises(ValidationError):
            store.insert_trusted(dup)
        assert not dup.trusted

    def test_nearest_trusted_vectorized_ordering(self):
        store = MemoryStore()
        near = make_vp(seed=7, x0=0.0)
        far = make_vp(seed=8, x0=5_000.0)
        store.insert_trusted(far)
        store.insert_trusted(near)
        nearest = QuerySpec(minute=0, trusted_only=True, nearest=Point(0, 0), k=1)
        assert store.query(nearest).vps == [near]
        assert store.query(replace(nearest, k=2)).vps == [near, far]


class TestStats:
    def test_stats_counts(self):
        store = MemoryStore()
        store.insert(make_vp(seed=1, minute=0))
        store.insert_trusted(make_vp(seed=2, minute=1))
        stats = store.stats()
        assert stats.backend == "memory"
        assert stats.vps == 2
        assert stats.trusted == 1
        assert stats.minutes == 2
        assert stats.detail["grid_cells"] > 0


class TestSpatialGrid:
    def test_candidates_superset_of_query(self):
        grid = SpatialGrid(cell_m=100.0)
        vps = [make_vp(seed=i, x0=200.0 * i) for i in range(8)]
        for vp in vps:
            grid.insert(vp)
        area = Rect(150, -50, 650, 50)
        exact = grid.in_area(area)
        candidates = grid.candidates(area)
        assert set(id(v) for v in exact) <= set(id(v) for v in candidates)
        # linear reference
        from repro.store.base import vp_claims_in_area

        assert exact == [vp for vp in vps if vp_claims_in_area(vp, area)]

    def test_negative_coordinates(self):
        grid = SpatialGrid(cell_m=100.0)
        vp = make_vp(seed=9, x0=-425.0, y0=-125.0)
        grid.insert(vp)
        assert grid.in_area(Rect(-500, -200, -300, 0)) == [vp]
