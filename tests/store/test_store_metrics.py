"""The store's own metric registry: what the log records, and how to fold it.

Every ``SegmentStore`` times its writes (``store.insert``), evictions
(``store.evict``) and reads (``store.query``) into one
``MetricsRegistry`` and counts tile-cache hits and misses into the same
registry; ``stats().detail["metrics"]`` is its snapshot.  Snapshots are
plain dicts, so a saved one folds cleanly into a reopened store's fresh
ones with ``MetricsRegistry.merge_snapshot``: observability survives a
restart without any store-side merge.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, counter_value
from repro.store import QuerySpec, SegmentStore, encode_vp_batch
from tests.store.conftest import fresh_prefix, make_vp

#: anonymous and named segments
PATHS = {"memory": lambda: "", "named": fresh_prefix}


def vps_over_minutes(n: int, base_seed: int = 1) -> list:
    return [make_vp(seed=base_seed + i, minute=i % 3, x0=40.0 * i) for i in range(n)]


def count(snap: dict, name: str) -> int:
    return snap[name]["count"] if name in snap else 0


@pytest.fixture(params=list(PATHS))
def path(request):
    return PATHS[request.param]()


def test_each_write_call_is_one_insert_observation(path):
    with SegmentStore(path) as store:
        store.insert_many(vps_over_minutes(12))  # three minutes, one write
        assert count(store.metrics.snapshot(), "store.insert.wall_s") == 1
        store.insert(make_vp(seed=100))
        store.insert_encoded(encode_vp_batch(vps_over_minutes(4, base_seed=200)))
        snap = store.metrics.snapshot()
        assert count(snap, "store.insert.wall_s") == 3
        assert count(snap, "store.insert.modeled_s") == 3  # nothing modeled: wall again


def test_evictions_and_reads_are_timed(path):
    with SegmentStore(path) as store:
        store.insert_many(vps_over_minutes(6))
        store.query(QuerySpec(minute=0))
        store.query(QuerySpec(minute=1, count=True))
        store.evict_before(2)
        snap = store.metrics.snapshot()
        assert count(snap, "store.query.wall_s") == 2
        assert count(snap, "store.evict.wall_s") == 1


def test_stats_detail_is_the_registry_snapshot(path):
    with SegmentStore(path) as store:
        store.insert_many(vps_over_minutes(6))
        spec = QuerySpec(minute=0, count=True)
        store.query(spec)  # builds the minute's tiles
        store.query(spec)  # served from them
        detail = store.stats().detail
        assert detail["metrics"] == store.metrics.snapshot()
        assert counter_value(detail["metrics"], "store.query.tile_hit") == 1
        assert counter_value(detail["metrics"], "store.query.tile_miss") == 1
        assert detail["tile_cache"]["hits"] == 1


def test_metrics_can_be_disabled_per_store(path):
    with SegmentStore(path, metrics=MetricsRegistry(enabled=False)) as store:
        assert store.insert_many(vps_over_minutes(6)) == 6
        store.query(QuerySpec(minute=0, count=True))
        store.query(QuerySpec(minute=0, count=True))
        store.evict_before(1)
        assert store.metrics.snapshot() == {}
        assert store.stats().detail["metrics"] == {}
        assert store.stats().detail["tile_cache"]["hits"] == 1  # the cache still works


def test_a_saved_snapshot_folds_into_a_reopened_stores(path):
    store = SegmentStore(path)
    store.insert_many(vps_over_minutes(8))
    store.insert(make_vp(seed=50, minute=4))
    saved = store.metrics.snapshot()
    store.close()
    reopened = SegmentStore(path)
    try:
        # a new registry: the fresh epoch starts empty
        assert count(reopened.metrics.snapshot(), "store.insert.wall_s") == 0
        reopened.insert_many(vps_over_minutes(8, base_seed=100))
        fresh = reopened.metrics.snapshot()
        combined = MetricsRegistry()
        for snap in (saved, fresh):
            combined.merge_snapshot(snap)
        total = Histogram.from_dict(combined.snapshot()["store.insert.wall_s"])
        assert total.count == count(saved, "store.insert.wall_s") + 1 == 3
    finally:
        reopened.close()


def test_stores_sharing_a_registry_report_into_one_view(path):
    registry = MetricsRegistry()
    first = SegmentStore(path, metrics=registry)
    second = SegmentStore(fresh_prefix() if path else "", metrics=registry)
    try:
        first.insert_many(vps_over_minutes(3))
        second.insert_many(vps_over_minutes(3, base_seed=10))
        second.insert(make_vp(seed=20))
        assert count(registry.snapshot(), "store.insert.wall_s") == 3
        assert first.stats().detail["metrics"] == second.stats().detail["metrics"]
    finally:
        first.close()
        second.close()
