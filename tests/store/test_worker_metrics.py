"""Cross-process metric aggregation through the worker shard fleet.

The contract under test: every worker process keeps a local
``MetricsRegistry``, snapshots travel back over the existing command
pipe (the ``metrics`` op, and inside each shard's ``stats`` reply), and
the routing tier merges them — parent registry included — into one
fleet-wide view at ``stats().detail["metrics"]``.  Snapshots are plain
dicts, so a saved snapshot merges cleanly with a *restarted* fleet's
fresh ones: observability survives worker restarts.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, merge_snapshots
from repro.store import make_store
from repro.store.sharded import ShardedStore
from repro.store.workers import ProcessShardedStore
from tests.store.conftest import make_vp

N_WORKERS = 2


def fleet_vps(n: int, base_seed: int = 1) -> list:
    return [make_vp(seed=base_seed + i, minute=i % 3, x0=40.0 * i) for i in range(n)]


class TestWorkerMetrics:
    def test_each_worker_ships_its_own_snapshot(self, tmp_path):
        store = make_store("procs", str(tmp_path / "m"), ingest_workers=N_WORKERS)
        try:
            store.insert_many(fleet_vps(12))
            snaps = store.worker_metrics()
            assert len(snaps) == N_WORKERS
            for snap in snaps:
                # the insert stage ran inside the worker process
                assert snap["store.insert.wall_s"]["count"] >= 1
        finally:
            store.close()

    def test_stats_detail_merges_all_workers(self, tmp_path):
        store = make_store("procs", str(tmp_path / "s"), ingest_workers=N_WORKERS)
        try:
            store.insert_many(fleet_vps(12))
            per_worker = store.worker_metrics()
            merged = store.stats().detail["metrics"]
            fleet = Histogram.from_dict(merged["store.insert.wall_s"])
            # the fleet histogram is exactly the sum of the workers'
            assert fleet.count == sum(
                s["store.insert.wall_s"]["count"] for s in per_worker
            )
            # the routing tier's own stage rides along in the merge
            assert merged["route.insert.wall_s"]["count"] >= 1
        finally:
            store.close()

    def test_metrics_can_be_disabled_per_fleet(self):
        store = ProcessShardedStore.memory(n_workers=N_WORKERS, metrics_enabled=False)
        try:
            store.insert_many(fleet_vps(6))
            assert all(snap == {} for snap in store.worker_metrics())
        finally:
            store.close()

    def test_snapshot_merge_survives_worker_restart(self, tmp_path):
        prefix = str(tmp_path / "r")
        store = make_store("procs", prefix, ingest_workers=N_WORKERS)
        try:
            store.insert_many(fleet_vps(8))
            saved = [dict(snap) for snap in store.worker_metrics()]
            first_count = sum(s["store.insert.wall_s"]["count"] for s in saved)
            assert first_count >= 1
        finally:
            store.close()  # the whole fleet of processes exits

        restarted = make_store("procs", prefix, ingest_workers=N_WORKERS)
        try:
            restarted.insert_many(fleet_vps(8, base_seed=100))
            fresh = restarted.worker_metrics()
            second_count = sum(s["store.insert.wall_s"]["count"] for s in fresh)
            # new processes, new registries: the fresh epoch starts empty
            assert all(pid is not None for pid in restarted.worker_pids())
            combined = merge_snapshots(saved + fresh)
            total = Histogram.from_dict(combined["store.insert.wall_s"])
            assert total.count == first_count + second_count
        finally:
            restarted.close()


class TestShardSkewGauges:
    def test_shard_load_extremes_surface(self):
        store = ShardedStore.memory(n_shards=2)
        try:
            # minutes 0..3 route by hash; whatever the split, max/min
            # must bracket the per-shard populations exactly
            store.insert_many(
                [make_vp(seed=10 + i, minute=i % 4, x0=25.0 * i) for i in range(10)]
            )
            stats = store.stats()
            loads = stats.detail["shard_vps"]
            skew = stats.detail["shard_load"]
            assert skew["max"] == max(loads)
            assert skew["min"] == min(loads)
            assert skew["imbalance"] >= 1.0 or skew["min"] == 0
            merged = stats.detail["metrics"]
            assert merged["shards.load_max"]["value"] == max(loads)
            assert merged["shards.load_min"]["value"] == min(loads)
        finally:
            store.close()

    def test_hot_shard_imbalance_is_visible(self):
        # one hot minute, no spatial routing: every VP lands on a single
        # shard — the skew the summed counters of stats() used to hide
        store = ShardedStore.memory(n_shards=2)
        try:
            store.insert_many(
                [make_vp(seed=50 + i, minute=0, x0=30.0 * i) for i in range(6)]
            )
            skew = store.stats().detail["shard_load"]
            assert skew["max"] == 6
            assert skew["min"] == 0
        finally:
            store.close()
