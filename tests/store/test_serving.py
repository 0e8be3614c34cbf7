"""Tests for the read-path serving tier: QuerySpec, tiles, TileCache.

The concurrency-sensitive part is the tile cache's write-bracket
discipline: a cached minute may only be served when no ingest bracket
overlapped its build, and eviction invalidates by epoch.  These tests
exercise the token protocol directly, then drive whole backends through
racing ingest/evict/count traffic and assert the cache never serves a
count the store contradicts.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect
from repro.obs.metrics import MetricsRegistry, counter_value
from repro.store.serving import (
    MinuteTiles,
    QuerySpec,
    TileCache,
    build_minute_tiles,
    tile_cells_of_box,
)
from tests.store.conftest import PLACEMENTS, build_placement, make_vp


class TestQuerySpec:
    def test_defaults(self):
        spec = QuerySpec(minute=3)
        assert spec.area is None and not spec.trusted_only
        assert not spec.count and not spec.encoded

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"minute": -1},
            {"minute": 0, "k": 0},
            {"minute": 0, "count": True, "encoded": True},
            {"minute": 0, "nearest": Point(0, 0), "count": True},
            {"minute": 0, "nearest": Point(0, 0), "encoded": True},
        ],
    )
    def test_invalid_axes_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            QuerySpec(**kwargs)


class TestMinuteTiles:
    def test_cells_of_box_inclusive(self):
        cells = set(tile_cells_of_box(-10.0, 0.0, 260.0, 0.0, 250.0))
        assert cells == {(-1, 0), (0, 0), (1, 0)}

    def test_overlap_has_no_false_negatives(self):
        tiles = build_minute_tiles([(1, 0.0, 0.0, 100.0, 100.0)], cell_m=250.0)
        assert tiles.n_vps == 1 and tiles.n_trusted == 1
        assert tiles.overlaps(Rect(50, 50, 60, 60))
        assert not tiles.overlaps(Rect(5000, 5000, 6000, 6000))


class TestTileCacheProtocol:
    def test_build_store_read(self):
        cache = TileCache(cell_m=250.0)
        token = cache.begin(0)
        tiles = build_minute_tiles([(1, 0.0, 0.0, 10.0, 10.0)], cell_m=250.0)
        assert cache.store(0, tiles, token)
        assert cache.counts(0) == (1, 1)
        assert cache.overlaps(0, Rect(0, 0, 5, 5)) is True

    def test_store_rejected_when_bracket_overlaps_build(self):
        cache = TileCache(cell_m=250.0)
        token = cache.begin(0)
        with cache.write((0,)) as tile_writes:
            tile_writes.add(0, 0, 0.0, 0.0, 1.0, 1.0)
        # the bracket ran between begin and store: the scan may or may
        # not have seen the row, so the build must be discarded
        assert not cache.store(0, MinuteTiles(cell_m=250.0), token)
        assert cache.counts(0) is None

    def test_store_rejected_while_bracket_in_flight(self):
        cache = TileCache(cell_m=250.0)
        with cache.write((0,)):
            token = cache.begin(0)
            assert not cache.store(0, MinuteTiles(cell_m=250.0), token)

    def test_bracket_deltas_keep_cached_entry_exact(self):
        cache = TileCache(cell_m=250.0)
        token = cache.begin(0)
        assert cache.store(0, MinuteTiles(cell_m=250.0), token)
        with cache.write((0,)) as tile_writes:
            tile_writes.add(0, 1, 0.0, 0.0, 10.0, 10.0)
        assert cache.counts(0) == (1, 1)

    def test_mark_dirty_drops_the_minute(self):
        cache = TileCache(cell_m=250.0)
        token = cache.begin(0)
        assert cache.store(0, MinuteTiles(cell_m=250.0), token)
        with cache.write((0,)) as tile_writes:
            tile_writes.mark_dirty(0)
        assert cache.counts(0) is None

    def test_invalidate_below_bumps_epoch_and_drops(self):
        cache = TileCache(cell_m=250.0)
        for minute in (0, 5):
            token = cache.begin(minute)
            assert cache.store(minute, MinuteTiles(cell_m=250.0), token)
        pending = cache.begin(7)
        cache.invalidate_below(3)
        assert cache.counts(0) is None  # evicted minute dropped
        assert cache.counts(5) == (0, 0)  # surviving minute kept
        # a build begun before the eviction may have scanned doomed rows
        assert not cache.store(7, MinuteTiles(cell_m=250.0), pending)

    def test_lru_bound(self):
        cache = TileCache(max_minutes=2, cell_m=250.0)
        for minute in range(3):
            token = cache.begin(minute)
            assert cache.store(minute, MinuteTiles(cell_m=250.0), token)
        assert cache.counts(0) is None
        assert cache.info()["minutes"] == 2

    def test_hit_miss_counters_reach_registry(self):
        registry = MetricsRegistry()
        cache = TileCache(cell_m=250.0, metrics=registry)
        cache.counts(0)  # miss
        token = cache.begin(0)
        cache.store(0, MinuteTiles(cell_m=250.0), token)
        cache.counts(0)  # hit
        snap = registry.snapshot()
        assert counter_value(snap, "store.query.tile_miss") == 1
        assert counter_value(snap, "store.query.tile_hit") == 1


@pytest.mark.parametrize("kind", list(PLACEMENTS))
class TestBackendTiles:
    def _store(self, kind):
        return build_placement(kind)

    def test_counts_served_from_tiles_after_first_build(self, kind):
        store = self._store(kind)
        try:
            store.insert_many([make_vp(seed=i, minute=1) for i in range(4)])
            store.insert_trusted(make_vp(seed=99, minute=1))
            spec = QuerySpec(minute=1, count=True)
            assert store.query(spec).n == 5
            assert store.query(spec).n == 5
            assert store.query(QuerySpec(minute=1, trusted_only=True, count=True)).n == 1
            info = store.stats().detail["tile_cache"]
            assert info["hits"] >= 1
        finally:
            store.close()

    def test_area_miss_short_circuits(self, kind):
        store = self._store(kind)
        try:
            store.insert_many([make_vp(seed=i, minute=0, x0=0.0) for i in range(3)])
            far = Rect(50_000.0, 50_000.0, 51_000.0, 51_000.0)
            store.query(QuerySpec(minute=0, count=True))  # prime the tiles
            assert store.query(QuerySpec(minute=0, area=far)).vps == []
            frame = store.query_encoded(QuerySpec(minute=0, area=far, encoded=True))
            assert frame[1:5] == (0).to_bytes(4, "big")
        finally:
            store.close()

    def test_eviction_invalidates_tiles(self, kind):
        store = self._store(kind)
        try:
            store.insert_many([make_vp(seed=i, minute=0) for i in range(3)])
            store.insert_many([make_vp(seed=10 + i, minute=5) for i in range(2)])
            assert store.query(QuerySpec(minute=0, count=True)).n == 3
            store.evict_before(3)
            assert store.query(QuerySpec(minute=0, count=True)).n == 0
            assert store.query(QuerySpec(minute=5, count=True)).n == 2
        finally:
            store.close()

    def test_coverage_tiles_totals_match_population(self, kind):
        store = self._store(kind)
        try:
            store.insert_many(
                [make_vp(seed=i, minute=2, x0=400.0 * i) for i in range(4)]
            )
            store.insert_trusted(make_vp(seed=50, minute=2))
            tiles = store.coverage_tiles(2)
            assert (tiles.n_vps, tiles.n_trusted) == (5, 1)
            assert sum(c[0] for c in tiles.cells.values()) >= 5
        finally:
            store.close()


@pytest.mark.parametrize("kind", list(PLACEMENTS))
def test_tile_counts_exact_under_concurrent_ingest_and_evict(kind):
    """Racing writers, a count reader and an evictor never desync tiles.

    The reader polls tile-backed counts while writers land rows and an
    evictor advances the watermark; afterwards every minute's cached
    count must equal the rows actually present — the write brackets and
    the eviction epoch must have discarded every stale build.
    """
    store = build_placement(kind)
    errors: list[Exception] = []
    stop = threading.Event()

    def writer(base: int) -> None:
        try:
            for i in range(40):
                store.insert(make_vp(seed=base + i, minute=(base + i) % 4))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def reader() -> None:
        try:
            while not stop.is_set():
                for minute in range(4):
                    n = store.query(QuerySpec(minute=minute, count=True)).n
                    assert n >= 0
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def evictor() -> None:
        try:
            for cutoff in (1, 2):
                store.evict_before(cutoff)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(1000 * t,)) for t in range(3)]
    threads.append(threading.Thread(target=reader))
    threads.append(threading.Thread(target=evictor))
    for t in threads[:3] + threads[4:]:
        t.start()
    threads[3].start()
    for t in threads[:3] + threads[4:]:
        t.join()
    stop.set()
    threads[3].join()
    assert not errors
    # quiesced: tile-backed counts must match the rows that survived
    for minute in range(4):
        expected = len(store.query(QuerySpec(minute=minute)).vps)
        assert store.query(QuerySpec(minute=minute, count=True)).n == expected
        tiles = store.coverage_tiles(minute)
        assert tiles.n_vps == expected
    store.close()
